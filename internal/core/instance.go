// Package core implements LiPS itself: the three linear-programming
// scheduling models from the paper (offline simple task scheduling, Fig. 2;
// offline cost-efficient co-scheduling, Fig. 3; online epoch-based
// co-scheduling with a fake overflow node, Fig. 4), solution extraction,
// and the rounding of fractional schedules to integral task plans (§IV).
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
// cluster groups; otherwise they are individual nodes/stores.
func NewInstance(c *cluster.Cluster, jobs []workload.Job, objects []hdfs.DataObject, placement *hdfs.Placement, opts InstanceOptions) (*Instance, error) {
	if opts.Horizon <= 0 {
		return nil, fmt.Errorf("core: non-positive horizon %g", opts.Horizon)
	}
	in := &Instance{Horizon: opts.Horizon}

	// Machine and store units, plus a map from concrete store to unit.
	storeUnitOf := make(map[cluster.StoreID]int)
	if opts.Aggregate {
		for _, g := range c.Groups() {
			name := g.Zone + "/" + g.Type
			machine := len(in.Machines)
			in.Machines = append(in.Machines, Machine{
				Name: name, Type: g.Type, ECU: g.TotalECU,
				PerECUSecMC: g.PerECUSec.ToMillicents(),
				Nodes:       append([]cluster.NodeID(nil), g.Nodes...),
			})
			if len(g.Stores) > 0 {
				unit := len(in.Stores)
				in.Stores = append(in.Stores, StoreUnit{
					Name: name, CapacityMB: g.CapacityMB,
					Stores: append([]cluster.StoreID(nil), g.Stores...),
				})
				in.CoMachine = append(in.CoMachine, machine)
				for _, s := range g.Stores {
					storeUnitOf[s] = unit
				}
			}
		}
		// Stores not co-located with any node (remote stores) become
		// their own units.
		for _, s := range c.Stores {
			if _, ok := storeUnitOf[s.ID]; ok {
				continue
			}
			if s.Node != cluster.None {
				continue // grouped above
			}
			storeUnitOf[s.ID] = len(in.Stores)
			in.Stores = append(in.Stores, StoreUnit{
				Name: s.Name, CapacityMB: s.CapacityMB, Stores: []cluster.StoreID{s.ID},
			})
			in.CoMachine = append(in.CoMachine, -1)
		}
	} else {
		for _, n := range c.Nodes {
			in.Machines = append(in.Machines, Machine{
				Name: n.Name, Type: n.Type, ECU: n.ECU,
				PerECUSecMC: n.PerECUSec.ToMillicents(),
				Nodes:       []cluster.NodeID{n.ID},
			})
		}
		for _, s := range c.Stores {
			storeUnitOf[s.ID] = len(in.Stores)
			in.Stores = append(in.Stores, StoreUnit{
				Name: s.Name, CapacityMB: s.CapacityMB, Stores: []cluster.StoreID{s.ID},
			})
			if s.Node != cluster.None {
				in.CoMachine = append(in.CoMachine, int(s.Node))
			} else {
				in.CoMachine = append(in.CoMachine, -1)
			}
		}
	}

	// Cost and bandwidth matrices via unit representatives. Units are
	// composed of interchangeable members, so any representative yields
	// the same zone-level prices.
	repNode := make([]cluster.NodeID, len(in.Machines))
	for l, m := range in.Machines {
		repNode[l] = m.Nodes[0]
	}
	repStore := make([]cluster.StoreID, len(in.Stores))
	for m, s := range in.Stores {
		repStore[m] = s.Stores[0]
	}
	in.MSPerMBMC = make([][]float64, len(in.Machines))
	in.BandwidthMBps = make([][]float64, len(in.Machines))
	for l := range in.Machines {
		in.MSPerMBMC[l] = make([]float64, len(in.Stores))
		in.BandwidthMBps[l] = make([]float64, len(in.Stores))
		for m := range in.Stores {
			in.MSPerMBMC[l][m] = c.MSPerGB(repNode[l], repStore[m]).ToMillicents() / 1024
			in.BandwidthMBps[l][m] = c.BandwidthStoreNode(repStore[m], repNode[l])
		}
	}
	in.SSPerMBMC = make([][]float64, len(in.Stores))
	for a := range in.Stores {
		in.SSPerMBMC[a] = make([]float64, len(in.Stores))
		for b := range in.Stores {
			in.SSPerMBMC[a][b] = c.SSPerGB(repStore[a], repStore[b]).ToMillicents() / 1024
		}
	}

	// Data items with origin fractions mapped onto store units.
	objUnit := make(map[hdfs.ObjectID]int)
	for _, o := range objects {
		origin := make(map[int]float64)
		for s, f := range placement.Fractions(o.ID) {
			unit, ok := storeUnitOf[s]
			if !ok {
				return nil, fmt.Errorf("core: object %q on unmapped store %d", o.Name, s)
			}
			origin[unit] += f
		}
		if len(origin) == 0 {
			unit, ok := storeUnitOf[o.Origin]
			if !ok {
				return nil, fmt.Errorf("core: object %q origin store %d unmapped", o.Name, o.Origin)
			}
			origin[unit] = 1
		}
		objUnit[o.ID] = len(in.Data)
		in.Data = append(in.Data, DataItem{Name: o.Name, SizeMB: o.SizeMB, Origin: origin})
	}

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

// StoreUnitOf builds the reverse map from concrete cluster stores to the
// instance's store units.
func (in *Instance) StoreUnitOf() map[cluster.StoreID]int {
	out := make(map[cluster.StoreID]int)
	for unit, su := range in.Stores {
		for _, s := range su.Stores {
			out[s] = unit
		}
	}
	return out
}

// FilterMachines restricts the instance to machines whose nodes satisfy
// alive: dead nodes leave their unit (scaling the unit's aggregate ECU
// down proportionally), and units with no live node are removed together
// with their MS/B matrix rows and CoMachine references. It reports
// whether anything changed — callers warm-starting an LP must drop their
// basis when it does, as the column structure no longer matches. Store
// units are untouched: a store outlives its node (the data survives; only
// co-located compute is gone).
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
		var live []cluster.NodeID
		for _, n := range m.Nodes {
			if alive(n) {
				live = append(live, n)
			}
		}
		if len(live) == 0 {
			changed = true
			continue
		}
		if len(live) < len(m.Nodes) {
			changed = true
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
		for m, cm := range in.CoMachine {
			if cm >= 0 {
				in.CoMachine[m] = newIdx[cm]
			}
		}
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
