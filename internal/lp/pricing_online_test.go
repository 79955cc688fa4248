package lp_test

import (
	"fmt"
	"math/rand"
	"testing"

	"lips/internal/core"
	"lips/internal/lp"
)

// onlineInstance draws a synthetic epoch for the online model: jobs with
// one input each, machines in a few price classes, every store reachable
// from every machine. drift, when non-nil, moves prices and the horizon by
// a few percent — the next epoch of the same shape.
func onlineInstance(jobs, machines, stores int, rng, drift *rand.Rand) *core.Instance {
	nudge := func(v float64) float64 {
		if drift == nil {
			return v
		}
		return v * (1 + 0.1*(drift.Float64()-0.5))
	}
	in := &core.Instance{Horizon: nudge(400)}
	totalMB := 0.0
	for k := 0; k < jobs; k++ {
		size := 256 + rng.Float64()*1024
		totalMB += size
		in.Data = append(in.Data, core.DataItem{
			Name: fmt.Sprintf("d%d", k), SizeMB: size, Origin: map[int]float64{rng.Intn(stores): 1},
		})
		in.Jobs = append(in.Jobs, core.JobItem{
			Name: fmt.Sprintf("j%d", k), Data: k, CPUSec: 200 + rng.Float64()*2000, NumTasks: 4 + rng.Intn(12),
		})
	}
	in.SSPerMBMC = make([][]float64, stores)
	for a := 0; a < stores; a++ {
		in.Stores = append(in.Stores, core.StoreUnit{Name: fmt.Sprintf("s%d", a), CapacityMB: totalMB})
		in.CoMachine = append(in.CoMachine, -1)
		in.SSPerMBMC[a] = make([]float64, stores)
		for b := 0; b < stores; b++ {
			if a != b {
				in.SSPerMBMC[a][b] = rng.Float64() * 0.01
			}
		}
	}
	for l := 0; l < machines; l++ {
		in.Machines = append(in.Machines, core.Machine{
			Name: fmt.Sprintf("m%d", l), Type: "t",
			ECU: 2 + float64(rng.Intn(6)), PerECUSecMC: nudge(0.5 + rng.Float64()*4),
		})
		ms, bw := make([]float64, stores), make([]float64, stores)
		for a := range ms {
			ms[a], bw[a] = rng.Float64()*0.02, 50+rng.Float64()*200
		}
		in.MSPerMBMC = append(in.MSPerMBMC, ms)
		in.BandwidthMBps = append(in.BandwidthMBps, bw)
	}
	return in
}

// TestPricingOracleOnlineModels runs the reference pricer beside the
// incremental one on the LPs LiPS actually solves: core's online model
// cold, the next epoch offered its basis as a warm start, and
// the same epoch by column generation.
func TestPricingOracleOnlineModels(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		jobs, machines, stores := 6+int(seed)*3, 5+int(seed), 3+int(seed)%3
		build := func(drift *rand.Rand) *core.Model {
			m, err := core.BuildOnlineModel(onlineInstance(jobs, machines, stores, rand.New(rand.NewSource(seed)), drift))
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		cold, coldSteps := lp.WithPricingOracle(t, fmt.Sprintf("online/%d/cold", seed), lp.Options{})
		plan, err := build(nil).Solve(cold)
		if err != nil {
			t.Fatal(err)
		}
		warm, warmSteps := lp.WithPricingOracle(t, fmt.Sprintf("online/%d/warm", seed),
			lp.Options{WarmStart: plan.Basis})
		if _, err := build(rand.New(rand.NewSource(100 + seed))).Solve(warm); err != nil {
			t.Fatal(err)
		}
		cg, cgSteps := lp.WithPricingOracle(t, fmt.Sprintf("online/%d/colgen", seed), lp.Options{})
		cgPlan, st, err := core.SolveOnlineColGen(onlineInstance(jobs, machines, stores, rand.New(rand.NewSource(seed)), nil),
			core.ColGenOptions{LP: cg})
		if err != nil {
			t.Fatal(err)
		}
		if d := (cgPlan.TotalMC() - plan.TotalMC()) / plan.TotalMC(); d > 1e-6 || d < -1e-6 {
			t.Errorf("seed %d: colgen cost %g, full model %g", seed, cgPlan.TotalMC(), plan.TotalMC())
		}
		if coldSteps() == 0 || warmSteps() == 0 || cgSteps() == 0 {
			t.Errorf("seed %d: oracle saw %d cold, %d warm, %d colgen pricing steps (%d rounds): every path must price",
				seed, coldSteps(), warmSteps(), cgSteps(), st.Rounds)
		}
	}
}
