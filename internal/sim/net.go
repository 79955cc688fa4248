package sim

// The shared-link network model (Options.SharedLinks): transfers between
// a zone pair share that pair's capacity by processor sharing — k
// concurrent flows each progress at capacity/k — instead of each enjoying
// the full pairwise bandwidth. This models the network saturation the
// paper warns about ("scheduling multiple network-I/O intensive tasks on
// the same hardware may result in network saturation", §I). Same-node
// (local disk) reads are never shared.
//
// Implementation: a flow records its remaining megabytes and current
// rate; whenever the flow set of a link changes, every flow on that link
// is elapsed to the current clock, rates are recomputed, and completion
// events are rescheduled (stale events are voided by a generation
// counter). An attempt holds its flow by id, not by pointer, so the task
// table stays pointer-free; the engine looks the id up in flows.

import (
	"math"
	"sort"
)

// linkID identifies an unordered zone pair.
type linkID struct{ a, b string }

func mkLink(zoneA, zoneB string) linkID {
	if zoneA > zoneB {
		zoneA, zoneB = zoneB, zoneA
	}
	return linkID{a: zoneA, b: zoneB}
}

// flow is one in-flight transfer on a shared link.
type flow struct {
	id          int32
	link        linkID
	total       float64 // megabytes requested
	remainingMB float64
	rate        float64 // MB/s, current share
	lastUpdate  float64 // clock of the last remainingMB update
	gen         int     // voids stale completion events
	done        bool
	onDone      func()
}

type linkState struct {
	capacityMBps float64
	flows        map[int32]*flow
}

// netEngine manages all shared links of a simulation.
type netEngine struct {
	s       *Sim
	links   map[linkID]*linkState
	flows   map[int32]*flow // every in-flight flow, by id
	nextID  int32
	sortBuf []*flow // reused by reschedule's deterministic ordering
}

func newNetEngine(s *Sim) *netEngine {
	return &netEngine{s: s, links: make(map[linkID]*linkState), flows: make(map[int32]*flow)}
}

// linkFor returns the shared link between two zones, creating it with the
// cluster's pairwise bandwidth as the shared capacity.
func (ne *netEngine) linkFor(zoneA, zoneB string) *linkState {
	id := mkLink(zoneA, zoneB)
	ls, ok := ne.links[id]
	if !ok {
		ls = &linkState{capacityMBps: ne.s.C.ZoneMBps(zoneA, zoneB), flows: make(map[int32]*flow)}
		ne.links[id] = ls
	}
	return ls
}

// start begins a transfer of mb megabytes between the zones and calls
// onDone at completion. It returns the flow; the caller keeps its id for
// cancel, and must not reuse the flow after onDone fires.
func (ne *netEngine) start(zoneA, zoneB string, mb float64, onDone func()) *flow {
	ls := ne.linkFor(zoneA, zoneB)
	ne.elapse(ls)
	f := &flow{
		id: ne.newID(), link: mkLink(zoneA, zoneB),
		total: mb, remainingMB: mb, lastUpdate: ne.s.clock, onDone: onDone,
	}
	ls.flows[f.id] = f
	ne.flows[f.id] = f
	ne.reschedule(ls)
	return f
}

// newID returns the next flow id: ids count up from 1 and, should a run
// ever start 2³¹ flows, wrap past the ones still in flight. 0 is no flow.
func (ne *netEngine) newID() int32 {
	for {
		if ne.nextID == math.MaxInt32 {
			ne.nextID = 0
		}
		ne.nextID++
		if _, live := ne.flows[ne.nextID]; !live {
			return ne.nextID
		}
	}
}

// cancel aborts the in-flight flow id and returns the megabytes it moved;
// a flow that has finished moves nothing more.
func (ne *netEngine) cancel(id int32) float64 {
	f, ok := ne.flows[id]
	if !ok {
		return 0
	}
	ls := ne.links[f.link]
	ne.elapse(ls)
	moved := f.movedOf()
	f.done = true
	f.gen++
	delete(ls.flows, id)
	delete(ne.flows, id)
	ne.reschedule(ls)
	return moved
}

// movedOf reports how much the flow has transferred so far (valid right
// after elapse).
func (f *flow) movedOf() float64 { return f.total - f.remainingMB }

// sortedFlows returns the link's flows ordered by id, in the engine's
// reused scratch buffer (valid until the next call). Iteration order
// matters wherever events are scheduled: the event heap breaks same-time
// ties by insertion sequence, so ranging over the flow map directly would
// make simultaneous completions fire in a different order on every run.
func (ne *netEngine) sortedFlows(ls *linkState) []*flow {
	out := ne.sortBuf[:0]
	for _, f := range ls.flows {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	ne.sortBuf = out
	return out
}

// elapse advances every flow on the link to the current clock.
func (ne *netEngine) elapse(ls *linkState) {
	now := ne.s.clock
	for _, f := range ls.flows {
		f.remainingMB -= f.rate * (now - f.lastUpdate)
		if f.remainingMB < 0 {
			f.remainingMB = 0
		}
		f.lastUpdate = now
	}
}

// reschedule recomputes fair-share rates and completion events after a
// membership change. Must be called right after elapse.
func (ne *netEngine) reschedule(ls *linkState) {
	n := len(ls.flows)
	if n == 0 {
		return
	}
	share := ls.capacityMBps / float64(n)
	for _, f := range ne.sortedFlows(ls) {
		f.rate = share
		f.gen++
		gen := f.gen
		fl := f
		eta := ne.s.clock + f.remainingMB/share
		ne.s.At(eta, func() {
			if fl.gen != gen || fl.done {
				return
			}
			ne.complete(fl)
		})
	}
}

// complete finishes a flow and re-shares its link.
func (ne *netEngine) complete(f *flow) {
	ls := ne.links[f.link]
	ne.elapse(ls)
	f.done = true
	f.remainingMB = 0
	delete(ls.flows, f.id)
	delete(ne.flows, f.id)
	ne.reschedule(ls)
	f.onDone()
}

// activeFlows reports the current flow count on a zone pair (for tests).
func (ne *netEngine) activeFlows(zoneA, zoneB string) int {
	ls, ok := ne.links[mkLink(zoneA, zoneB)]
	if !ok {
		return 0
	}
	return len(ls.flows)
}
