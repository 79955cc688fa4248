package experiments

import (
	"fmt"
	"sort"
)

// Fig11Run is one epoch setting's per-node accumulated CPU time breakdown
// (the paper compares 400 s against 600 s: shorter epochs spread work over
// more nodes — higher parallelism, faster jobs, higher cost).
type Fig11Run struct {
	EpochSec    float64
	PerNodeSec  []float64 // accumulated ECU-seconds, by node id
	ActiveNodes int       // nodes that accumulated > 1 ECU-second
	Makespan    float64
	CostDollars float64
}

// Fig11Result holds both epoch settings.
type Fig11Result struct {
	Runs []Fig11Run
}

// Fig11 runs LiPS on the Fig. 6(iii) testbed with 400 s and 600 s epochs
// and reports the per-node accumulated CPU time.
func Fig11(cfg Config) (*Fig11Result, error) {
	cfg = cfg.withDefaults()
	res := &Fig11Result{}
	for _, epoch := range []float64{400, 600} {
		c, w, p := testbed(cfg, 0.5)
		lr := lips(epoch)
		r, _, err := cfg.run(lr, fmt.Sprintf("fig11 e=%g", epoch), c, w, p, lr.opts)
		if err != nil {
			return nil, err
		}
		run := Fig11Run{
			EpochSec:    epoch,
			PerNodeSec:  make([]float64, len(c.Nodes)),
			ActiveNodes: r.NodeCPU.ActiveNodes(1),
			Makespan:    r.Makespan,
			CostDollars: r.TotalCost().ToDollars(),
		}
		for _, n := range r.NodeCPU.Nodes() {
			run.PerNodeSec[n] = r.NodeCPU.Of(n)
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Render shows the top contributors per run plus the parallelism summary.
func (r *Fig11Result) Render() string {
	rows := make([][]string, 0)
	for _, run := range r.Runs {
		type nodeSec struct {
			node int
			sec  float64
		}
		byLoad := make([]nodeSec, 0, len(run.PerNodeSec))
		for n, s := range run.PerNodeSec {
			byLoad = append(byLoad, nodeSec{n, s})
		}
		sort.Slice(byLoad, func(i, j int) bool { return byLoad[i].sec > byLoad[j].sec })
		top := ""
		for i := 0; i < 5 && i < len(byLoad); i++ {
			if byLoad[i].sec <= 0 {
				break
			}
			top += fmt.Sprintf("n%d:%.0fs ", byLoad[i].node, byLoad[i].sec)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0fs", run.EpochSec),
			fmt.Sprintf("%d/%d", run.ActiveNodes, len(run.PerNodeSec)),
			fmt.Sprintf("%.0fs", run.Makespan),
			fmt.Sprintf("$%.4f", run.CostDollars),
			top,
		})
	}
	return renderTable([]string{"epoch", "active nodes", "makespan", "cost", "top-5 nodes by CPU time"}, rows)
}
