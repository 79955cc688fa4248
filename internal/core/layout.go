package core

import (
	"fmt"
	"sort"

	"lips/internal/lp"
)

// noStore is the store of an x^t column of a job without input data: such
// a job has one column per machine.
const noStore = -1

// layout is the one description of where every column and row of a LiPS
// LP sits, for all three model kinds and for the restricted master of the
// online model. Indices are computed, never looked up: the builders emit
// columns and rows in exactly this order, and pricing, extraction, basis
// translation and the lazy names decode or re-encode through the same
// formulas (DESIGN.md §5 has the table).
//
// Columns: the placement flows xd[i,o,j] (items, then origins ascending,
// then stores), then the task fractions xt[k,l,m] — job-major on the
// direct path (jobs, machines, stores), unit-major in the master (units in
// materialization order, then jobs, then stores). Rows: job, place, cap,
// cpu, exist, xfer on the direct co-scheduling paths; job, exist, cpu for
// SimpleTask; job, place, cap, exist and then each unit's cpu row and xfer
// rows, at its materialization, in the master.
type layout struct {
	kind   Kind
	master bool

	jobs, stores, machines int

	// originOff[i] counts the (item, origin) pairs before data item i;
	// origins[originOff[i]:originOff[i+1]] are item i's origin units,
	// ascending.
	originOff, origins []int

	// colOff[k] counts the x^t columns jobs before k have on one machine
	// (one for a job without input, one per held store otherwise),
	// existOff[k] their exist rows and dataRank[k] the jobs with input
	// among them. realRank[l] counts the non-fake machines before l.
	colOff, existOff, dataRank, realRank []int

	// held[k] lists the stores job k may read its item from, ascending:
	// SimpleTask's fixed placement, one table per data item shared by its
	// readers. Nil means every store.
	held [][]int

	// First row of each block; unused blocks are empty.
	placeRow0, capRow0, cpuRow0, existRow0, xferRow0 int

	// Master only: the materialized units in order, and per machine its
	// first column and first row (its cpu row; the xfer rows of the jobs
	// with input follow). unitCol is -1 for a closed machine.
	units            []int
	unitCol, unitRow []int
	cols, rows       int
}

// newLayout computes the layout of in's LP. held is SimpleTask's placement
// filter, per job, and nil otherwise. A master layout starts with no unit
// open.
func newLayout(in *Instance, kind Kind, master bool, held [][]int) layout {
	nj, nd, nm := len(in.Jobs), len(in.Data), len(in.Machines)
	ly := layout{kind: kind, master: master, jobs: nj, stores: len(in.Stores), machines: nm, held: held}

	ly.originOff = make([]int, nd+1)
	for i, d := range in.Data {
		ly.origins = append(ly.origins, sortedOrigins(d)...)
		ly.originOff[i+1] = len(ly.origins)
	}
	norig := len(ly.origins)
	ly.colOff, ly.existOff, ly.dataRank = make([]int, nj+1), make([]int, nj+1), make([]int, nj+1)
	ly.realRank = make([]int, nm+1)
	for k, job := range in.Jobs {
		w := 1
		if job.Data != NoData {
			w = ly.stores
			if held != nil {
				w = len(held[k])
			}
			ly.existOff[k+1] = w
			ly.dataRank[k+1] = 1
		}
		ly.colOff[k+1] = ly.colOff[k] + w
		ly.existOff[k+1] += ly.existOff[k]
		ly.dataRank[k+1] += ly.dataRank[k]
	}
	for l, mach := range in.Machines {
		ly.realRank[l+1] = ly.realRank[l]
		if !mach.Fake {
			ly.realRank[l+1]++
		}
	}

	real, nexist := ly.realRank[nm], ly.existOff[nj]
	switch {
	case kind == SimpleTask:
		ly.existRow0 = nj
		ly.cpuRow0 = nj + nexist
		ly.cols, ly.rows = nm*ly.colOff[nj], ly.cpuRow0+real
	case master:
		ly.placeRow0 = nj
		ly.capRow0 = ly.placeRow0 + norig
		ly.existRow0 = ly.capRow0 + ly.stores
		ly.cols, ly.rows = norig*ly.stores, ly.existRow0+nexist
		ly.unitCol, ly.unitRow = make([]int, nm), make([]int, nm)
		for l := range ly.unitCol {
			ly.unitCol[l] = -1
		}
	default:
		ly.placeRow0 = nj
		ly.capRow0 = ly.placeRow0 + norig
		ly.cpuRow0 = ly.capRow0 + ly.stores
		ly.existRow0 = ly.cpuRow0 + real
		ly.xferRow0 = ly.existRow0 + nexist
		ly.cols, ly.rows = norig*ly.stores+nm*ly.colOff[nj], ly.xferRow0
		if kind == Online {
			ly.rows += ly.dataRank[nj] * real
		}
	}
	return ly
}

// xt0 is the first x^t column: the placement flows come before it.
func (ly *layout) xt0() int {
	if ly.kind == SimpleTask {
		return 0
	}
	return len(ly.origins) * ly.stores
}

// width is the number of x^t columns job k has on one machine.
func (ly *layout) width(k int) int { return ly.colOff[k+1] - ly.colOff[k] }

// openUnit records machine l as the master's next materialized unit: one
// block of columns and, unless it is the fake node, its cpu row and one
// xfer row per job with input.
func (ly *layout) openUnit(l int) {
	ly.units = append(ly.units, l)
	ly.unitCol[l], ly.unitRow[l] = ly.cols, ly.rows
	ly.cols += ly.colOff[ly.jobs]
	if !ly.isFake(l) {
		ly.rows += 1 + ly.dataRank[ly.jobs]
	}
}

// isFake reports whether machine l is the overflow node, which has no cpu
// or xfer row.
func (ly *layout) isFake(l int) bool { return ly.realRank[l+1] == ly.realRank[l] }

// isOpen reports whether machine l has columns: always on the direct path.
func (ly *layout) isOpen(l int) bool { return !ly.master || ly.unitCol[l] >= 0 }

// hasData reports whether job k reads a data item.
func (ly *layout) hasData(k int) bool { return ly.dataRank[k+1] > ly.dataRank[k] }

// storeAt is the store behind the pos'th x^t column of job k on a machine,
// noStore for a job without input.
func (ly *layout) storeAt(k, pos int) int {
	switch {
	case !ly.hasData(k):
		return noStore
	case ly.held != nil:
		return ly.held[k][pos]
	}
	return pos
}

// xd is the column of the flow of item i's oi'th origin to store j.
func (ly *layout) xd(i, oi, j int) lp.Var {
	return lp.Var((ly.originOff[i]+oi)*ly.stores + j)
}

// xtFirst is the first of job k's columns on machine l, which must be open.
func (ly *layout) xtFirst(k, l int) lp.Var {
	if ly.master {
		return lp.Var(ly.unitCol[l] + ly.colOff[k])
	}
	return lp.Var(ly.xt0() + ly.machines*ly.colOff[k] + l*ly.width(k))
}

func (ly *layout) jobRow(k int) lp.Con       { return lp.Con(k) }
func (ly *layout) placeRow(i, oi int) lp.Con { return lp.Con(ly.placeRow0 + ly.originOff[i] + oi) }
func (ly *layout) capRow(j int) lp.Con       { return lp.Con(ly.capRow0 + j) }

// existRow is the existence row of job k (with input) and its pos'th store.
func (ly *layout) existRow(k, pos int) lp.Con { return lp.Con(ly.existRow0 + ly.existOff[k] + pos) }

// cpuRow is the capacity row of the non-fake, open machine l.
func (ly *layout) cpuRow(l int) lp.Con {
	if ly.master {
		return lp.Con(ly.unitRow[l])
	}
	return lp.Con(ly.cpuRow0 + ly.realRank[l])
}

// xferRow is the online model's transfer-time row of job k (with input) on
// the non-fake, open machine l.
func (ly *layout) xferRow(k, l int) lp.Con {
	if ly.master {
		return lp.Con(ly.unitRow[l] + 1 + ly.dataRank[k])
	}
	real := ly.realRank[ly.machines]
	return lp.Con(ly.xferRow0 + ly.dataRank[k]*real + ly.realRank[l])
}

// eachXT calls fn for every x^t column in index order with the job,
// machine and store (noStore for a job without input) it stands for.
func (ly *layout) eachXT(fn func(v lp.Var, k, l, store int)) {
	block := func(v lp.Var, k, l int) {
		for pos := 0; pos < ly.width(k); pos++ {
			fn(v+lp.Var(pos), k, l, ly.storeAt(k, pos))
		}
	}
	if ly.master {
		for _, l := range ly.units {
			for k := 0; k < ly.jobs; k++ {
				block(ly.xtFirst(k, l), k, l)
			}
		}
		return
	}
	for k := 0; k < ly.jobs; k++ {
		for l := 0; l < ly.machines; l++ {
			block(ly.xtFirst(k, l), k, l)
		}
	}
}

// rank returns the last index i with off[i] <= x in a nondecreasing prefix
// table: the block x falls in, skipping empty blocks.
func rank(off []int, x int) int {
	return sort.Search(len(off), func(i int) bool { return off[i] > x }) - 1
}

// unitAt is the last materialized unit whose first column or row (first,
// per machine) is at or before x. A fake unit owns no row and starts where
// the next unit does, so a row never decodes to it.
func (ly *layout) unitAt(first []int, x int) int {
	return ly.units[sort.Search(len(ly.units), func(u int) bool { return first[ly.units[u]] > x })-1]
}

// colAt decodes a column index: a placement flow's item, origin position
// and store, or a task fraction's job, machine and position (see storeAt).
func (ly *layout) colAt(v lp.Var) (flow bool, a, b, c int) {
	r := int(v)
	if r < ly.xt0() {
		pair := r / ly.stores
		i := rank(ly.originOff, pair)
		return true, i, pair - ly.originOff[i], r % ly.stores
	}
	if ly.master {
		l := ly.unitAt(ly.unitCol, r)
		r -= ly.unitCol[l]
		k := rank(ly.colOff, r)
		return false, k, l, r - ly.colOff[k]
	}
	r -= ly.xt0()
	k := rank(ly.colOff, r/ly.machines)
	r -= ly.machines * ly.colOff[k]
	return false, k, r / ly.width(k), r % ly.width(k)
}

// rowBlock identifies a block of constraint rows.
type rowBlock int

const (
	rowJob   rowBlock = iota // (k)
	rowPlace                 // (i, origin position)
	rowCap                   // (j)
	rowCPU                   // (l)
	rowExist                 // (k, position)
	rowXfer                  // (k, l)
)

// rowAt decodes a row index into its block and the block's coordinates.
func (ly *layout) rowAt(c lp.Con) (blk rowBlock, a, b int) {
	r := int(c)
	exist := func(r int) (rowBlock, int, int) {
		k := rank(ly.existOff, r)
		return rowExist, k, r - ly.existOff[k]
	}
	real := ly.realRank[ly.machines]
	switch {
	case r < ly.jobs:
		return rowJob, r, 0
	case ly.kind == SimpleTask && r < ly.cpuRow0:
		return exist(r - ly.existRow0)
	case ly.kind == SimpleTask:
		return rowCPU, rank(ly.realRank, r-ly.cpuRow0), 0
	case r < ly.capRow0:
		i := rank(ly.originOff, r-ly.placeRow0)
		return rowPlace, i, r - ly.placeRow0 - ly.originOff[i]
	case r < ly.capRow0+ly.stores:
		return rowCap, r - ly.capRow0, 0
	case ly.master && r < ly.existRow0+ly.existOff[ly.jobs]:
		return exist(r - ly.existRow0)
	case ly.master:
		l := ly.unitAt(ly.unitRow, r)
		if r == ly.unitRow[l] {
			return rowCPU, l, 0
		}
		return rowXfer, rank(ly.dataRank, r-ly.unitRow[l]-1), l
	case r < ly.existRow0:
		return rowCPU, rank(ly.realRank, r-ly.cpuRow0), 0
	case r < ly.xferRow0:
		return exist(r - ly.existRow0)
	}
	r -= ly.xferRow0
	return rowXfer, rank(ly.dataRank, r/real), rank(ly.realRank, r%real)
}

// VarName implements lp.Namer: a column's name from its index alone, the
// string the builders used to format and store for every column.
func (ly *layout) VarName(v lp.Var) string {
	flow, a, b, c := ly.colAt(v)
	switch {
	case flow:
		return fmt.Sprintf("xd[%d,%d,%d]", a, ly.origins[ly.originOff[a]+b], c)
	case !ly.hasData(a):
		return fmt.Sprintf("xt[%d,%d,-]", a, b)
	}
	return fmt.Sprintf("xt[%d,%d,%d]", a, b, ly.storeAt(a, c))
}

// ConName implements lp.Namer.
func (ly *layout) ConName(c lp.Con) string {
	switch blk, a, b := ly.rowAt(c); blk {
	case rowJob:
		return fmt.Sprintf("job[%d]", a)
	case rowPlace:
		return fmt.Sprintf("place[%d,%d]", a, ly.origins[ly.originOff[a]+b])
	case rowCap:
		return fmt.Sprintf("cap[%d]", a)
	case rowCPU:
		return fmt.Sprintf("cpu[%d]", a)
	case rowExist:
		return fmt.Sprintf("exist[%d,%d]", a, ly.storeAt(a, b))
	default:
		return fmt.Sprintf("xfer[%d,%d]", a, b)
	}
}
