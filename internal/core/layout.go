package core

import (
	"fmt"
	"slices"
	"sort"

	"lips/internal/lp"
)

// noStore is the store of an x^t column of a job without input data: such
// a job has one column per machine.
const noStore = -1

// layout is the one description of where every column and row of a LiPS
// LP sits. Indices are computed, never looked up: the builders emit
// columns and rows in exactly this order, and pricing, extraction and the
// lazy names decode or re-encode through the same formulas (DESIGN.md §2
// has the table).
//
// A machine's columns and rows exist once it is opened as a unit. The
// restricted master opens units as pricing reveals them; a direct model
// is the master with every unit open from the start, the fake node first.
//
// Columns: the placement flows xd[i,o,j] (items, then origins ascending,
// then stores), then the task fractions xt[k,l,m] unit-major (units in
// opening order, then jobs, then stores). Rows: job, place, cap, exist,
// and then each unit's cpu row and, in the online model, its xfer rows,
// in opening order.
type layout struct {
	kind Kind

	jobs, stores int

	// originOff[i] counts the (item, origin) pairs before data item i;
	// origins[originOff[i]:originOff[i+1]] are item i's origin units,
	// ascending.
	originOff, origins []int

	// colOff[k] counts the x^t columns jobs before k have on one machine
	// (one for a job without input, one per store otherwise), existOff[k]
	// their exist rows and dataRank[k] the jobs with input among them.
	colOff, existOff, dataRank []int
	fake                       []bool // per machine: the overflow node, which has no cpu or xfer row

	// First row of each block before the units' rows.
	placeRow0, capRow0, existRow0 int

	// The open units in order, and per machine its first column and
	// first row (its cpu row; the xfer rows of the jobs with input
	// follow). unitCol is -1 for a closed machine.
	units            []int
	unitCol, unitRow []int
	cols, rows       int
}

// reset lays out in's LP with no unit open, reusing ly's slices.
func (ly *layout) reset(in *Instance, kind Kind) {
	nj, nd, nm := len(in.Jobs), len(in.Data), len(in.Machines)
	*ly = layout{
		kind: kind, jobs: nj, stores: len(in.Stores),
		originOff: resize(ly.originOff, nd+1), origins: ly.origins[:0],
		colOff: resize(ly.colOff, nj+1), existOff: resize(ly.existOff, nj+1), dataRank: resize(ly.dataRank, nj+1),
		fake: resize(ly.fake, nm), units: ly.units[:0], unitCol: resize(ly.unitCol, nm), unitRow: resize(ly.unitRow, nm),
	}

	ly.originOff[0] = 0
	for i, d := range in.Data {
		from := len(ly.origins)
		for o := range d.Origin {
			ly.origins = append(ly.origins, o)
		}
		slices.Sort(ly.origins[from:])
		ly.originOff[i+1] = len(ly.origins)
	}
	norig := len(ly.origins)
	ly.colOff[0], ly.existOff[0], ly.dataRank[0] = 0, 0, 0
	for k, job := range in.Jobs {
		w, exist, data := 1, 0, 0
		if job.Data != NoData {
			w, exist, data = ly.stores, ly.stores, 1
		}
		ly.colOff[k+1] = ly.colOff[k] + w
		ly.existOff[k+1] = ly.existOff[k] + exist
		ly.dataRank[k+1] = ly.dataRank[k] + data
	}

	ly.placeRow0 = nj
	ly.capRow0 = ly.placeRow0 + norig
	ly.existRow0 = ly.capRow0 + ly.stores
	ly.cols, ly.rows = norig*ly.stores, ly.existRow0+ly.existOff[nj]
	for l, mach := range in.Machines {
		ly.fake[l], ly.unitCol[l], ly.unitRow[l] = mach.Fake, -1, 0
	}
}

// resize returns buf with length n, reusing its backing array when that
// is large enough. Entries are not cleared: the caller sets every one.
func resize[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// width is the number of x^t columns job k has on one machine.
func (ly *layout) width(k int) int { return ly.colOff[k+1] - ly.colOff[k] }

// openUnit records machine l as the next unit: one block of columns and,
// unless it is the fake node, its cpu row and, in the online model, one
// xfer row per job with input.
func (ly *layout) openUnit(l int) {
	ly.units = append(ly.units, l)
	ly.unitCol[l], ly.unitRow[l] = ly.cols, ly.rows
	ly.cols += ly.colOff[ly.jobs]
	if !ly.fake[l] {
		ly.rows++
		if ly.kind == Online {
			ly.rows += ly.dataRank[ly.jobs]
		}
	}
}

// isOpen reports whether machine l is a unit: whether it has columns.
func (ly *layout) isOpen(l int) bool { return ly.unitCol[l] >= 0 }

// hasData reports whether job k reads a data item.
func (ly *layout) hasData(k int) bool { return ly.dataRank[k+1] > ly.dataRank[k] }

// storeAt is the store behind the pos'th x^t column of job k on a machine,
// noStore for a job without input.
func (ly *layout) storeAt(k, pos int) int {
	if !ly.hasData(k) {
		return noStore
	}
	return pos
}

// xd is the column of the flow of item i's oi'th origin to store j.
func (ly *layout) xd(i, oi, j int) lp.Var {
	return lp.Var((ly.originOff[i]+oi)*ly.stores + j)
}

// xtFirst is the first of job k's columns on machine l, which must be open.
func (ly *layout) xtFirst(k, l int) lp.Var { return lp.Var(ly.unitCol[l] + ly.colOff[k]) }

func (ly *layout) jobRow(k int) lp.Con       { return lp.Con(k) }
func (ly *layout) placeRow(i, oi int) lp.Con { return lp.Con(ly.placeRow0 + ly.originOff[i] + oi) }
func (ly *layout) capRow(j int) lp.Con       { return lp.Con(ly.capRow0 + j) }

// existRow is the existence row of job k (with input) and its pos'th store.
func (ly *layout) existRow(k, pos int) lp.Con { return lp.Con(ly.existRow0 + ly.existOff[k] + pos) }

// cpuRow is the capacity row of the non-fake, open machine l.
func (ly *layout) cpuRow(l int) lp.Con { return lp.Con(ly.unitRow[l]) }

// xferRow is the online model's transfer-time row of job k (with input) on
// the non-fake, open machine l.
func (ly *layout) xferRow(k, l int) lp.Con { return lp.Con(ly.unitRow[l] + 1 + ly.dataRank[k]) }

// eachXT calls fn for every x^t column in index order with the job,
// machine and store (noStore for a job without input) it stands for.
func (ly *layout) eachXT(fn func(v lp.Var, k, l, store int)) {
	for _, l := range ly.units {
		for k := 0; k < ly.jobs; k++ {
			for pos := 0; pos < ly.width(k); pos++ {
				fn(ly.xtFirst(k, l)+lp.Var(pos), k, l, ly.storeAt(k, pos))
			}
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
	if r < len(ly.origins)*ly.stores { // the flows come first
		pair := r / ly.stores
		i := rank(ly.originOff, pair)
		return true, i, pair - ly.originOff[i], r % ly.stores
	}
	l := ly.unitAt(ly.unitCol, r)
	r -= ly.unitCol[l]
	k := rank(ly.colOff, r)
	return false, k, l, r - ly.colOff[k]
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
	switch {
	case r < ly.jobs:
		return rowJob, r, 0
	case r < ly.capRow0:
		i := rank(ly.originOff, r-ly.placeRow0)
		return rowPlace, i, r - ly.placeRow0 - ly.originOff[i]
	case r < ly.capRow0+ly.stores:
		return rowCap, r - ly.capRow0, 0
	case r < ly.existRow0+ly.existOff[ly.jobs]:
		k := rank(ly.existOff, r-ly.existRow0)
		return rowExist, k, r - ly.existRow0 - ly.existOff[k]
	}
	l := ly.unitAt(ly.unitRow, r)
	if r == ly.unitRow[l] {
		return rowCPU, l, 0
	}
	return rowXfer, rank(ly.dataRank, r-ly.unitRow[l]-1), l
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
