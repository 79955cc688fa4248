package core

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"lips/internal/lp"
)

// Plan is a fractional schedule extracted from a solved model.
//
// XT[k] maps {machine, store} → the fraction of job k that runs on that
// machine reading that store (store is noStore == -1 for jobs without
// input). XD[i][j] is the fraction of data item i placed on store unit j.
// XDFlows[i] maps {origin unit, dest store} → flow fraction, the exact
// transportation decomposition behind XD. A solved model sets both, and
// GreedyPlan and LocalOnlyPlan, whose placement was an input, set neither:
// computeCosts sees the two both set or both nil and prices placement from
// XDFlows alone.
type Plan struct {
	In *Instance

	XT      []map[[2]int]float64
	XD      [][]float64
	XDFlows []map[[2]int]float64

	// ObjectiveMC is the LP objective at the optimum, in millicents —
	// unlike TotalMC it includes the fake node's fictitious charges, so it
	// is the right quantity for monotonicity comparisons across capacity
	// changes.
	ObjectiveMC float64

	// Cost breakdown in millicents, computed from the fractions:
	// objective terms (6)/(16), (7)/(17) and (8)/(18) of the paper.
	PlacementMC float64 // data relocation (x^d · SS)
	ExecMC      float64 // job execution (x^t · JM), excluding the fake node
	TransferMC  float64 // runtime store→machine movement (x^t · MS · Size)

	// DeferredFrac[k] is the fraction of job k parked on the fake node
	// (online model only): work pushed to the next epoch.
	DeferredFrac []float64

	// Rows, Cols and NNZ size the LP that was solved; under column
	// generation, the restricted master of the last pricing round.
	Rows, Cols, NNZ int
	// Stats is what the solve cost; under column generation, summed over
	// every pricing round.
	lp.Stats

	// Basis is the optimal simplex basis, reusable as lp.Options.WarmStart
	// on a later solve of an LP with the same shape. Nil when the solver
	// could not express one.
	Basis *lp.Basis
}

// TotalMC returns the executed-work cost: placement + execution + runtime
// transfer, excluding the fake node's fictitious charges.
func (p *Plan) TotalMC() float64 { return p.PlacementMC + p.ExecMC + p.TransferMC }

// computeCosts fills the cost breakdown and deferred fractions.
func (p *Plan) computeCosts() {
	in := p.In
	p.DeferredFrac = make([]float64, len(in.Jobs))
	p.PlacementMC, p.ExecMC, p.TransferMC = 0, 0, 0
	// All three accumulations below run in sorted key order: float
	// addition is not associative, so map-iteration order would give the
	// totals different low bits on every run.
	for i, flows := range p.XDFlows {
		for _, oj := range sortedKeys(flows) {
			p.PlacementMC += flows[oj] * in.SSPerMBMC[oj[0]][oj[1]] * in.Data[i].SizeMB
		}
	}
	for k, job := range in.Jobs {
		for _, lm := range sortedKeys(p.XT[k]) {
			f := p.XT[k][lm]
			l, store := lm[0], lm[1]
			if in.Machines[l].Fake {
				p.DeferredFrac[k] += f
				continue
			}
			p.ExecMC += f * job.CPUSec * in.Machines[l].PerECUSecMC
			if store != noStore && job.Data != NoData {
				p.TransferMC += f * in.MSPerMBMC[l][store] * in.Data[job.Data].SizeMB * job.accessFrac()
			}
		}
	}
}

// TaskAssignment is one rounded allocation: Tasks map tasks of job Job run
// on machine unit Machine reading store unit Store (noStore for jobs
// without input).
type TaskAssignment struct {
	Job     int
	Machine int
	Store   int
	Tasks   int
}

// DataMove is one rounded placement decision: Blocks 64 MB blocks of data
// item Data should end up on store unit Store.
type DataMove struct {
	Data   int
	Store  int
	Blocks int
}

// IntegralPlan is a Plan rounded to whole tasks and blocks (§IV of the
// paper: MapReduce admits fractional schedules in principle, but threads
// have a minimum viable size, so fractions are rounded to task
// granularity; the fractional optimum lower-bounds the integral one).
type IntegralPlan struct {
	Plan        *Plan
	Assignments []TaskAssignment
	Moves       []DataMove
	// Deferred[k] is the number of tasks of job k pushed back to the
	// queue (online model: the fake node's share).
	Deferred []int
}

// Round converts the fractional plan to an integral one. Each job's
// fractions are scaled to its task count with largest-remainder rounding,
// so per-job totals are preserved exactly; the fake node's share becomes
// deferred tasks. Data placements round to block counts the same way.
func (p *Plan) Round() *IntegralPlan {
	in := p.In
	ip := &IntegralPlan{Plan: p, Deferred: make([]int, len(in.Jobs))}
	for k, job := range in.Jobs {
		fr := cloneFracs(p.XT[k])
		normalizeFracs(fr)
		keys := sortedKeys(fr)
		fracs := make([]float64, len(keys))
		for idx, key := range keys {
			fracs[idx] = fr[key]
		}
		counts := LargestRemainder(fracs, job.NumTasks)
		for idx, key := range keys {
			n := counts[idx]
			if n == 0 {
				continue
			}
			l := key[0]
			if in.Machines[l].Fake {
				ip.Deferred[k] += n
				continue
			}
			ip.Assignments = append(ip.Assignments, TaskAssignment{
				Job: k, Machine: l, Store: key[1], Tasks: n,
			})
		}
	}
	if p.XD != nil {
		for i, d := range in.Data {
			blocks := numBlocks(d.SizeMB)
			if blocks == 0 {
				continue
			}
			fracs := append([]float64(nil), p.XD[i]...)
			normalizeSlice(fracs)
			counts := LargestRemainder(fracs, blocks)
			for j, n := range counts {
				if n == 0 {
					continue
				}
				ip.Moves = append(ip.Moves, DataMove{Data: i, Store: j, Blocks: n})
			}
		}
	}
	return ip
}

// LargestRemainder apportions total units over the given nonnegative
// fractions (which should sum to ~1): each bucket gets floor(frac·total),
// and the leftover units go to the largest remainders, ties broken by
// lower index. The result always sums to total.
func LargestRemainder(fracs []float64, total int) []int {
	counts := make([]int, len(fracs))
	if total <= 0 || len(fracs) == 0 {
		return counts
	}
	type rem struct {
		idx int
		r   float64
	}
	rems := make([]rem, len(fracs))
	assigned := 0
	for i, f := range fracs {
		if f < 0 {
			f = 0
		}
		exact := f * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, r: exact - float64(counts[i])}
	}
	sort.Slice(rems, func(a, b int) bool {
		if rems[a].r != rems[b].r {
			return rems[a].r > rems[b].r
		}
		return rems[a].idx < rems[b].idx
	})
	for i := 0; assigned < total; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	// Guard against over-assignment from pathological inputs (fracs
	// summing well above 1): trim from the largest buckets.
	for assigned > total {
		maxI := 0
		for i := range counts {
			if counts[i] > counts[maxI] {
				maxI = i
			}
		}
		counts[maxI]--
		assigned--
	}
	return counts
}

// CostMC evaluates the integral plan's cost (millicents) by pricing each
// rounded assignment and move: the integral analogue of Plan.TotalMC.
func (ip *IntegralPlan) CostMC() float64 {
	in := ip.Plan.In
	total := 0.0
	for _, a := range ip.Assignments {
		job := in.Jobs[a.Job]
		perTaskCPU := job.CPUSec / float64(job.NumTasks)
		total += float64(a.Tasks) * perTaskCPU * in.Machines[a.Machine].PerECUSecMC
		if a.Store != noStore && job.Data != NoData {
			perTaskMB := in.Data[job.Data].SizeMB * job.accessFrac() / float64(job.NumTasks)
			total += float64(a.Tasks) * perTaskMB * in.MSPerMBMC[a.Machine][a.Store]
		}
	}
	for _, mv := range ip.Moves {
		d := in.Data[mv.Data]
		blocks := numBlocks(d.SizeMB)
		perBlockMB := d.SizeMB / float64(blocks)
		perMB := 0.0
		for _, o := range sortedOrigins(d) {
			perMB += d.Origin[o] * in.SSPerMBMC[o][mv.Store]
		}
		total += float64(mv.Blocks) * perBlockMB * perMB
	}
	return total
}

func cloneFracs(in map[[2]int]float64) map[[2]int]float64 {
	out := make(map[[2]int]float64, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[[2]int]float64) [][2]int {
	keys := make([][2]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
	return keys
}

func normalizeSlice(fr []float64) {
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum <= 0 {
		return
	}
	for i := range fr {
		fr[i] /= sum
	}
}

func numBlocks(sizeMB float64) int {
	if sizeMB <= 0 {
		return 0
	}
	return int(math.Ceil(sizeMB / 64))
}
