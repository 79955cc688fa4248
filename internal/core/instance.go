// Package core implements LiPS itself: the paper's linear-programming
// scheduling models (offline cost-efficient co-scheduling, Fig. 3; online
// epoch-based co-scheduling with a fake overflow node, Fig. 4; the simple
// task model of Fig. 2 is Fig. 3 with the placement fixed and is not built
// on its own), solution extraction, and the rounding of fractional
// schedules to integral task plans (§IV).
//
// Models are built over an Instance, whose machines and stores may be
// either individual cluster nodes or aggregated groups of interchangeable
// nodes (see cluster.Groups). Group aggregation is lossless for clusters
// whose nodes fall into identical classes and shrinks the LP by orders of
// magnitude — the paper's 100-node testbed becomes a 9-machine LP.
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/workload"
)

// NoData marks a job that reads no input.
const NoData = -1

// Machine is one computation unit of an Instance: a node or a node group.
// ECU is the paper's TP(M) — aggregate throughput of the unit.
type Machine struct {
	Name        string
	Type        string // instance type, for spot-price schedules
	ECU         float64
	PerECUSecMC float64 // CPU_Cost(M) in millicents per ECU-second
	Fake        bool    // the online model's overflow node F

	// Uptime is the paper's uptime(M): how many seconds of the horizon
	// this machine is actually available (a lease expiring, a planned
	// decommission). Zero means the full horizon.
	Uptime float64

	// Nodes lists the concrete cluster nodes behind this unit (empty for
	// synthetic instances and the fake node).
	Nodes []cluster.NodeID
}

// StoreUnit is one storage unit of an Instance: a store or a store group.
type StoreUnit struct {
	Name       string
	CapacityMB float64

	// Stores lists the concrete cluster stores behind this unit.
	Stores []cluster.StoreID
}

// DataItem is one data object (or aggregated view of one) with its current
// location mix: Origin[m] is the fraction of the object currently on store
// unit m (the paper's O_i generalised to fractional placements).
type DataItem struct {
	Name   string
	SizeMB float64
	Origin map[int]float64
}

// JobItem is one job: TCP (CPU intensity), total demand, and the data item
// it reads (NoData for Pi-style jobs).
type JobItem struct {
	Name        string
	Data        int     // index into Instance.Data, or NoData
	CPUSecPerMB float64 // TCP(k)
	CPUSec      float64 // CPU(J_k): total ECU-second demand
	NumTasks    int
	// AccessFrac is the fractional JD entry: the job's expected traffic
	// as a ratio of the data item's size. Zero means a full scan (1).
	AccessFrac float64
}

// accessFrac returns the effective JD fraction.
func (j JobItem) accessFrac() float64 {
	if j.AccessFrac <= 0 {
		return 1
	}
	return j.AccessFrac
}

// Instance is a self-contained scheduling problem: jobs, data, machines,
// stores, and the cost/bandwidth matrices the paper calls JM, MS, SS, B.
type Instance struct {
	Jobs     []JobItem
	Data     []DataItem
	Machines []Machine
	Stores   []StoreUnit

	// MSPerMBMC[l][m] is the runtime transfer cost from store unit m to
	// machine unit l, in millicents per MB.
	MSPerMBMC [][]float64
	// SSPerMBMC[a][b] is the relocation cost between store units, in
	// millicents per MB.
	SSPerMBMC [][]float64
	// BandwidthMBps[l][m] is the transfer bandwidth from store unit m to
	// machine unit l in MB/s (the paper's B matrix).
	BandwidthMBps [][]float64

	// CoMachine[m] is the machine unit co-located with store unit m, or
	// -1 for remote stores. Used by the 100%-data-local baseline.
	CoMachine []int

	// Horizon is uptime(M) in the offline models or the epoch length e
	// in the online model, in seconds. The same horizon applies to every
	// machine; per-machine uptimes can be emulated by scaling ECU.
	Horizon float64

	// storeUnit[s] is the store unit of concrete store s, -1 for none;
	// shared with the Units the instance was built over (see StoreUnit).
	storeUnit []int32

	// mats holds MSPerMBMC, BandwidthMBps and SSPerMBMC when they came
	// from matrixPool (Units.Instance), until releaseMatrices.
	mats *matrices
}

// Validate checks the matrix shapes and index ranges.
func (in *Instance) Validate() error {
	nm, ns := len(in.Machines), len(in.Stores)
	if len(in.MSPerMBMC) != nm || len(in.BandwidthMBps) != nm {
		return fmt.Errorf("core: MS/B have %d/%d rows, want %d", len(in.MSPerMBMC), len(in.BandwidthMBps), nm)
	}
	for l := range in.MSPerMBMC {
		if len(in.MSPerMBMC[l]) != ns || len(in.BandwidthMBps[l]) != ns {
			return fmt.Errorf("core: MS/B row %d has %d/%d cols, want %d", l, len(in.MSPerMBMC[l]), len(in.BandwidthMBps[l]), ns)
		}
	}
	if len(in.SSPerMBMC) != ns {
		return fmt.Errorf("core: SS has %d rows, want %d", len(in.SSPerMBMC), ns)
	}
	for a := range in.SSPerMBMC {
		if len(in.SSPerMBMC[a]) != ns {
			return fmt.Errorf("core: SS row %d has %d cols, want %d", a, len(in.SSPerMBMC[a]), ns)
		}
	}
	for k, j := range in.Jobs {
		if j.Data != NoData && (j.Data < 0 || j.Data >= len(in.Data)) {
			return fmt.Errorf("core: job %d references data %d", k, j.Data)
		}
		if j.CPUSec < 0 || j.NumTasks <= 0 {
			return fmt.Errorf("core: job %d has CPUSec %g, tasks %d", k, j.CPUSec, j.NumTasks)
		}
	}
	for i, d := range in.Data {
		sum := 0.0
		for m, f := range d.Origin {
			if m < 0 || m >= ns {
				return fmt.Errorf("core: data %d origin store %d out of range", i, m)
			}
			sum += f
		}
		if math.Abs(sum-1) > 1e-6 {
			return fmt.Errorf("core: data %d origin fractions sum to %g", i, sum)
		}
	}
	if in.Horizon <= 0 {
		return fmt.Errorf("core: horizon %g", in.Horizon)
	}
	return nil
}

// TotalDemandCPUSec sums the jobs' CPU demand.
func (in *Instance) TotalDemandCPUSec() float64 {
	s := 0.0
	for _, j := range in.Jobs {
		s += j.CPUSec
	}
	return s
}

// HorizonOf returns the effective availability of machine l: its Uptime
// capped by the instance horizon (the paper's uptime(M), or the epoch e).
func (in *Instance) HorizonOf(l int) float64 {
	m := in.Machines[l]
	if m.Uptime > 0 && m.Uptime < in.Horizon {
		return m.Uptime
	}
	return in.Horizon
}

// TotalSupplyCPUSec sums machine capacity over their effective horizons,
// excluding the fake node.
func (in *Instance) TotalSupplyCPUSec() float64 {
	s := 0.0
	for l, m := range in.Machines {
		if !m.Fake {
			s += m.ECU * in.HorizonOf(l)
		}
	}
	return s
}

// InstanceOptions controls instance construction from a cluster.
type InstanceOptions struct {
	// Aggregate groups interchangeable nodes into single LP machines
	// (lossless for class-structured clusters; see cluster.Groups).
	Aggregate bool
	// Horizon is uptime (offline) or the epoch length (online), seconds.
	Horizon float64
}

// NewInstance builds an Instance from a cluster, a set of jobs, and the
// current data placement. With opts.Aggregate, machines and stores are
// cluster groups; otherwise they are individual nodes/stores. It is
// NewUnits followed by Units.Instance; a caller that builds instances of
// one cluster repeatedly keeps the Units instead.
func NewInstance(c *cluster.Cluster, jobs []workload.Job, objects []hdfs.DataObject, placement *hdfs.Placement, opts InstanceOptions) (*Instance, error) {
	fractions := make([]map[cluster.StoreID]float64, len(objects))
	for i, o := range objects {
		fractions[i] = placement.Fractions(o.ID)
	}
	return NewUnits(c, opts.Aggregate).Instance(jobs, objects, fractions, opts.Horizon)
}

// Units is the part of an Instance that depends only on the cluster and
// the aggregation choice: the machine and store units, which machine each
// store unit is co-located with, which unit each concrete store belongs
// to, and the transfer model at zone level. Instances built over one Units
// share its store units, co-location and store table, and copy its
// machines, which FilterMachines and a price multiplier edit per instance.
// The cost and bandwidth matrices are not kept: each instance fills its
// own from the zone rows, which is array copies, not cluster lookups.
//
// A unit is represented by its first node or store: units are composed of
// interchangeable members, so any member yields the same zone-level
// prices, and the first one decides whether a read is co-located.
type Units struct {
	machines  []Machine
	stores    []StoreUnit
	coMachine []int
	storeUnit []int32 // cluster.StoreID → store unit, -1 for none

	// Zone z's rows over the store units: the remote MS/SS price in
	// millicents per MB and the remote bandwidth in MB/s of a read from
	// each store unit into zone z. Zones are numbered as the
	// representatives first name them.
	priceRows, mbpsRows [][]float64
	machineZone         []int // machine unit → zone row of its representative node
	storeZone           []int // store unit → zone row of its representative store
	// coStore[l] is the store unit whose representative is the store of
	// machine unit l's representative node, or -1: the one entry of row
	// l that is read locally and for free.
	coStore   []int
	localMBps float64
}

// NewUnits builds the units of cluster c: node groups with aggregate,
// else one unit per node and per store.
func NewUnits(c *cluster.Cluster, aggregate bool) *Units {
	u := &Units{storeUnit: make([]int32, len(c.Stores))}
	for i := range u.storeUnit {
		u.storeUnit[i] = -1
	}
	addStore := func(su StoreUnit, coMachine int) {
		for _, s := range su.Stores {
			u.storeUnit[s] = int32(len(u.stores))
		}
		u.stores = append(u.stores, su)
		u.coMachine = append(u.coMachine, coMachine)
	}
	if aggregate {
		for _, g := range c.Groups() {
			name := g.Zone + "/" + g.Type
			machine := len(u.machines)
			u.machines = append(u.machines, Machine{
				Name: name, Type: g.Type, ECU: g.TotalECU,
				PerECUSecMC: g.PerECUSec.ToMillicents(),
				Nodes:       append([]cluster.NodeID(nil), g.Nodes...),
			})
			if len(g.Stores) > 0 {
				addStore(StoreUnit{
					Name: name, CapacityMB: g.CapacityMB,
					Stores: append([]cluster.StoreID(nil), g.Stores...),
				}, machine)
			}
		}
		// Stores not co-located with any node (remote stores) become
		// their own units.
		for _, s := range c.Stores {
			if u.storeUnit[s.ID] < 0 && s.Node == cluster.None {
				addStore(StoreUnit{Name: s.Name, CapacityMB: s.CapacityMB, Stores: []cluster.StoreID{s.ID}}, -1)
			}
		}
		u.zoneRows(c)
		return u
	}
	for _, n := range c.Nodes {
		u.machines = append(u.machines, Machine{
			Name: n.Name, Type: n.Type, ECU: n.ECU,
			PerECUSecMC: n.PerECUSec.ToMillicents(),
			Nodes:       []cluster.NodeID{n.ID},
		})
	}
	for _, s := range c.Stores {
		co := -1
		if s.Node != cluster.None {
			co = int(s.Node)
		}
		addStore(StoreUnit{Name: s.Name, CapacityMB: s.CapacityMB, Stores: []cluster.StoreID{s.ID}}, co)
	}
	u.zoneRows(c)
	return u
}

// zoneRows derives the transfer model of the units from the cluster, once
// per run: the zone of every representative, the co-located entry of
// every machine row, and each zone's remote prices and bandwidths.
func (u *Units) zoneRows(c *cluster.Cluster) {
	var zones []string
	index := make(map[string]int)
	zoneOf := func(zone string) int {
		z, ok := index[zone]
		if !ok {
			z = len(zones)
			index[zone] = z
			zones = append(zones, zone)
		}
		return z
	}
	u.machineZone = make([]int, len(u.machines))
	u.coStore = make([]int, len(u.machines))
	for l, mach := range u.machines {
		n := c.Nodes[mach.Nodes[0]]
		u.machineZone[l] = zoneOf(n.Zone)
		u.coStore[l] = -1
		if n.Store != cluster.None {
			if m := u.storeUnit[n.Store]; m >= 0 && u.stores[m].Stores[0] == n.Store {
				u.coStore[l] = int(m)
			}
		}
	}
	u.storeZone = make([]int, len(u.stores))
	for m, su := range u.stores {
		u.storeZone[m] = zoneOf(c.Stores[su.Stores[0]].Zone)
	}
	ns := len(u.stores)
	u.priceRows, u.mbpsRows = new(matrixBuf).matrix(len(zones), ns, len(zones)), new(matrixBuf).matrix(len(zones), ns, len(zones))
	for z, zone := range zones {
		for m, sz := range u.storeZone {
			u.priceRows[z][m] = c.ZonePerGB(zone, zones[sz]).ToMillicents() / 1024
			u.mbpsRows[z][m] = c.ZoneMBps(zones[sz], zone)
		}
	}
	u.localMBps = c.BW.LocalMBps
}

// Instance builds an Instance over the units: jobs, their input objects
// and each object's placement, fractions[i] for objects[i] — store →
// share, or empty for an object wholly on its Origin — over a horizon.
func (u *Units) Instance(jobs []workload.Job, objects []hdfs.DataObject, fractions []map[cluster.StoreID]float64, horizon float64) (*Instance, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %g", horizon)
	}
	nm, ns := len(u.machines), len(u.stores)
	in := &Instance{
		Horizon: horizon,
		// Room for the fake node the online model appends.
		Machines:  append(make([]Machine, 0, nm+1), u.machines...),
		Stores:    u.stores,
		CoMachine: u.coMachine,
		storeUnit: u.storeUnit,
	}

	// Cost and bandwidth matrices from the zone rows: a machine row is
	// its zone's, but for the co-located store, read locally and free; a
	// store row is its zone's, but for itself, where a move is free.
	// The storage is pooled: every entry is written here.
	in.mats = matrixPool.Get().(*matrices)
	in.MSPerMBMC, in.BandwidthMBps = in.mats.ms.matrix(nm, ns, nm+1), in.mats.bw.matrix(nm, ns, nm+1)
	for l, z := range u.machineZone {
		copy(in.MSPerMBMC[l], u.priceRows[z])
		copy(in.BandwidthMBps[l], u.mbpsRows[z])
		if m := u.coStore[l]; m >= 0 {
			in.MSPerMBMC[l][m], in.BandwidthMBps[l][m] = 0, u.localMBps
		}
	}
	in.SSPerMBMC = in.mats.ss.matrix(ns, ns, ns)
	for a, z := range u.storeZone {
		copy(in.SSPerMBMC[a], u.priceRows[z])
		in.SSPerMBMC[a][a] = 0
	}

	// Data items with origin fractions mapped onto store units. Several
	// stores can fold into one unit, so each unit's share is summed in
	// ascending store order: in map-iteration order the sum would carry
	// different low bits from one build to the next, and the LP turns
	// those into different rounded plans for a fixed seed.
	objUnit := make(map[hdfs.ObjectID]int, len(objects))
	in.Data = make([]DataItem, 0, len(objects))
	var stores []cluster.StoreID
	for i, o := range objects {
		stores = stores[:0]
		for s := range fractions[i] {
			stores = append(stores, s)
		}
		slices.Sort(stores)
		origin := make(map[int]float64, len(stores))
		for _, s := range stores {
			unit, ok := in.StoreUnit(s)
			if !ok {
				return nil, fmt.Errorf("core: object %q on unmapped store %d", o.Name, s)
			}
			origin[unit] += fractions[i][s]
		}
		if len(origin) == 0 {
			unit, ok := in.StoreUnit(o.Origin)
			if !ok {
				return nil, fmt.Errorf("core: object %q origin store %d unmapped", o.Name, o.Origin)
			}
			origin[unit] = 1
		}
		objUnit[o.ID] = len(in.Data)
		in.Data = append(in.Data, DataItem{Name: o.Name, SizeMB: o.SizeMB, Origin: origin})
	}

	in.Jobs = make([]JobItem, 0, len(jobs))
	for _, j := range jobs {
		item := JobItem{
			Name: j.Name, Data: NoData,
			CPUSecPerMB: j.CPUSecPerMB, CPUSec: j.TotalCPUSec(), NumTasks: j.NumTasks,
			AccessFrac: j.EffectiveAccessFrac(),
		}
		if j.HasInput() {
			di, ok := objUnit[j.Object]
			if !ok {
				return nil, fmt.Errorf("core: job %q reads object %d not in instance", j.Name, j.Object)
			}
			item.Data = di
		}
		in.Jobs = append(in.Jobs, item)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// matrixBuf is the storage of one matrix: its entries and its row headers.
type matrixBuf struct {
	flat []float64
	rows [][]float64
}

// matrix returns a rows × cols matrix over one backing array, with room
// for capRows rows, on b's storage when that is large enough. Entries are
// not cleared.
func (b *matrixBuf) matrix(rows, cols, capRows int) [][]float64 {
	b.flat = resize(b.flat, rows*cols)
	if cap(b.rows) < capRows {
		b.rows = make([][]float64, rows, capRows)
	}
	b.rows = b.rows[:rows]
	for r := range b.rows {
		b.rows[r] = b.flat[r*cols : (r+1)*cols : (r+1)*cols]
	}
	return b.rows
}

// matrices is the storage of an instance's MS, B and SS matrices.
type matrices struct{ ms, bw, ss matrixBuf }

// matrixPool holds the matrices of released instances: Units.Instance
// refills them every epoch, and OnlineColGen.Release returns them.
var matrixPool = sync.Pool{New: func() any { return new(matrices) }}

// releaseMatrices returns in's pooled matrices, if it has any, and nils
// the three fields that shared them.
func (in *Instance) releaseMatrices() {
	if in.mats == nil {
		return
	}
	for _, b := range []*matrixBuf{&in.mats.ms, &in.mats.bw, &in.mats.ss} {
		clear(b.rows[:cap(b.rows)]) // AddFakeNode's rows are not ours to keep
	}
	matrixPool.Put(in.mats)
	in.mats, in.MSPerMBMC, in.BandwidthMBps, in.SSPerMBMC = nil, nil, nil, nil
}

// StoreUnit returns the store unit holding concrete store s. It reports
// false for a store in no unit, and for every store of an instance that
// was not built from a cluster.
func (in *Instance) StoreUnit(s cluster.StoreID) (int, bool) {
	if int(s) < 0 || int(s) >= len(in.storeUnit) || in.storeUnit[s] < 0 {
		return 0, false
	}
	return int(in.storeUnit[s]), true
}

// FilterMachines restricts the instance to machines whose nodes satisfy
// alive: dead nodes leave their unit (scaling the unit's aggregate ECU
// down proportionally), and units with no live node are removed together
// with their MS/B matrix rows and CoMachine references. It reports
// whether anything changed — callers warm-starting an LP must drop their
// basis when it does, as the column structure no longer matches. Store
// units are untouched: a store outlives its node (the data survives; only
// co-located compute is gone). Machines is edited in place; CoMachine,
// which the instance may share with its Units, is replaced when renumbered.
func (in *Instance) FilterMachines(alive func(cluster.NodeID) bool) bool {
	changed := false
	keep := make([]int, 0, len(in.Machines))
	newIdx := make([]int, len(in.Machines))
	for l, m := range in.Machines {
		newIdx[l] = -1
		if m.Fake || len(m.Nodes) == 0 {
			newIdx[l] = len(keep)
			keep = append(keep, l)
			continue
		}
		nLive := 0
		for _, n := range m.Nodes {
			if alive(n) {
				nLive++
			}
		}
		if nLive == 0 {
			changed = true
			continue
		}
		if nLive < len(m.Nodes) {
			changed = true
			live := make([]cluster.NodeID, 0, nLive)
			for _, n := range m.Nodes {
				if alive(n) {
					live = append(live, n)
				}
			}
			in.Machines[l].ECU = m.ECU * float64(len(live)) / float64(len(m.Nodes))
			in.Machines[l].Nodes = live
		}
		newIdx[l] = len(keep)
		keep = append(keep, l)
	}
	if len(keep) < len(in.Machines) {
		machines := make([]Machine, len(keep))
		ms := make([][]float64, len(keep))
		bw := make([][]float64, len(keep))
		for i, l := range keep {
			machines[i] = in.Machines[l]
			ms[i] = in.MSPerMBMC[l]
			bw[i] = in.BandwidthMBps[l]
		}
		in.Machines, in.MSPerMBMC, in.BandwidthMBps = machines, ms, bw
		co := make([]int, len(in.CoMachine))
		for m, cm := range in.CoMachine {
			co[m] = cm
			if cm >= 0 {
				co[m] = newIdx[cm]
			}
		}
		in.CoMachine = co
	}
	return changed
}

// AddFakeNode appends the online model's overflow node F: effectively
// unlimited capacity at a prohibitive CPU price (paper §V-B). It returns
// the machine index. perECUSecMC should dwarf every real price; the
// conventional value is FakeNodePriceMC.
func (in *Instance) AddFakeNode(perECUSecMC float64) int {
	idx := len(in.Machines)
	in.Machines = append(in.Machines, Machine{
		Name: "fake-F", Type: "fake", ECU: math.MaxFloat64 / 1e30, PerECUSecMC: perECUSecMC, Fake: true,
	})
	ns := len(in.Stores)
	msRow := make([]float64, ns)
	bwRow := make([]float64, ns)
	for m := range bwRow {
		bwRow[m] = math.MaxFloat64 / 1e30 // transfers to F never happen
	}
	in.MSPerMBMC = append(in.MSPerMBMC, msRow)
	in.BandwidthMBps = append(in.BandwidthMBps, bwRow)
	return idx
}

// FakeNodePriceMC is the conventional CPU price of the fake node F: three
// orders of magnitude above the 0–10 mc/ECU·s range of real machines, so
// the LP uses F only when real capacity is exhausted.
//
// The price must NOT be astronomically large: when the epoch is heavily
// over-subscribed, F's objective contribution dominates the total, and a
// price like 1e9 pushes the objective to a magnitude where one float64 ulp
// exceeds the real machines' per-iteration cost improvements — the simplex
// then cannot make numeric progress and spins. 1e4 keeps the preference
// strict while leaving ~9 decimal digits of headroom for the real signal.
const FakeNodePriceMC = 1e4
