package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/lp"
)

// mixedOnlineInstance is the golden corpus' awkward online instance: a
// job without input, a data item split over two origins, a job with zero
// CPU demand and a machine unit lost to FilterMachines.
func mixedOnlineInstance(t *testing.T, seed int64) *Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	in := nodedInstance(7, 9, 4, 3, rng)
	in.Jobs[1].Data = NoData
	in.Jobs[2].CPUSec = 0
	in.Data[0].Origin = map[int]float64{3: 0.25, 1: 0.75}
	if !in.FilterMachines(func(n cluster.NodeID) bool { return n != 4 }) {
		t.Fatal("FilterMachines removed nothing")
	}
	return in
}

// problemLine condenses one LP to a golden line: its shape and the SHA-256
// of lp.Write's text — names, bounds, costs, senses, right-hand sides and
// every coefficient in stored order.
func problemLine(t *testing.T, name string, p *lp.Problem) string {
	t.Helper()
	var buf bytes.Buffer
	if err := lp.Write(&buf, p); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s rows=%d cols=%d nnz=%d sha256=%x",
		name, p.NumCons(), p.NumVars(), p.NumNonzeros(), sha256.Sum256(buf.Bytes()))
}

// modelCorpus builds a fixed set of models down every builder path and
// reports one problemLine each, in a fixed order.
func modelCorpus(t *testing.T) []string {
	t.Helper()
	var out []string
	direct := func(name string, m *Model, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, problemLine(t, name, m.Problem()))
	}
	master := func(name string, in *Instance, opts ColGenOptions) *Plan {
		t.Helper()
		cg, err := NewOnlineColGen(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		plan, st, err := cg.Solve(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.Columns == 0 {
			t.Fatalf("%s: pricing added no machine, the master is only its seed", name)
		}
		if p := cg.m.prob; plan.Rows != p.NumCons() || plan.Cols != p.NumVars() || plan.NNZ != p.NumNonzeros() {
			t.Errorf("%s: plan says the LP was %d×%d with %d nonzeros, the final master is %d×%d with %d",
				name, plan.Rows, plan.Cols, plan.NNZ, p.NumCons(), p.NumVars(), p.NumNonzeros())
		}
		out = append(out, problemLine(t, name, cg.m.prob))
		return plan
	}

	m, err := BuildOnlineModel(mixedOnlineInstance(t, 11))
	direct("online/mixed", m, err)
	m, err = BuildOnlineModel(filterInstance(t))
	direct("online/aggregated", m, err)

	rng := rand.New(rand.NewSource(12))
	co := synthInstance(5, 6, 3, 2, false, rng)
	fillSS(co, rng)
	co.Data[2].Origin = map[int]float64{0: 0.5, 2: 0.5}
	m, err = BuildCoScheduleModel(co)
	direct("coschedule/synth", m, err)
	m, err = BuildCoScheduleModel(twoNodeInstance(t, 1, 0.01))
	direct("coschedule/two-node", m, err)

	master("master/mixed", mixedOnlineInstance(t, 11), ColGenOptions{})
	rng = rand.New(rand.NewSource(14))
	big := synthInstance(8, 60, 3, 4, false, rng)
	fillSS(big, rng)
	plan := master("master/unseeded", big.clone(), ColGenOptions{})
	// Half the hot machines, so pricing still has columns to add; the
	// out-of-range and repeated hints are skipped.
	hot := plan.HotMachines()
	hints := append([]int{-1, 99, hot[0]}, hot[:len(hot)/2]...)
	master("master/seeded", big.clone(), ColGenOptions{SeedMachines: hints})
	return out
}

// TestModelGolden pins the LP every builder path emits — direct models of
// both kinds and the restricted master after its last pricing round —
// as recorded from the map-and-Sprintf builders. There is no update flag:
// after an intended change, paste the printed line over the stale one.
func TestModelGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/model.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range modelCorpus(t) {
		if !strings.Contains("\n"+string(golden), "\n"+line+"\n") {
			t.Errorf("not a line of testdata/model.golden:\n%s", line)
		}
	}
}
