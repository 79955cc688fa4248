package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"lips/internal/cluster"
	"lips/internal/hdfs"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/sim"
	"lips/internal/workload"
)

// workloadDef is one named workload. round runs it once on inputs made
// from the seed; scale shrinks the job counts (the tests smoke every
// workload at 1 %), and a nil tracer is the untraced pass.
type workloadDef struct {
	name, why string
	// deterministic workloads must repeat their simulated outputs to the
	// bit in every round of a run.
	deterministic bool
	round         func(seed int64, scale float64, tr *tracer) (*round, error)
}

var workloads = []workloadDef{
	{
		name: "paper100-swim", deterministic: true,
		why:   "the paper's Fig. 9 day on 100 nodes under FIFO, Delay and LiPS: slot-driven sim work, LP negligible, so LP gains must not show here",
		round: paperRound,
	},
	{
		name: "stream-1k-light", deterministic: true,
		why:   "the daemon's loop without its ticker, 16 small jobs an epoch on 1k nodes: warm LPs, so model build and per-epoch glue do the work",
		round: streamRound(streamParams{nodes: 1000, epochs: 200, perEpoch: 16, loBlocks: 4, hiBlocks: 15}),
	},
	{
		name: "stream-1k-wide", deterministic: true,
		why:   "same loop, 24 larger jobs an epoch: most warm starts are rejected and the simplex is ~85% of the wall, so LP gains must show here",
		round: streamRound(streamParams{nodes: 1000, epochs: 34, perEpoch: 24, loBlocks: 11, hiBlocks: 42}),
	},
	{
		name: "stream-10k-hetero", deterministic: true,
		why:   "10k nodes of 60 types under column generation with node churn: the cold first epoch is set-up, later epochs reseed from the last plan",
		round: streamRound(streamParams{nodes: 10000, types: 60, epochs: 34, perEpoch: 8, loBlocks: 4, hiBlocks: 15, colgen: true, churnEvery: 8}),
	},
	{
		name: "batch-10k-scale", deterministic: true,
		why:   "2M random tasks on 10k nodes under the Scale scheduler: no LP at all, the simulator's event loop and tables alone",
		round: batchRound,
	},
	{
		name:  "serve-live-1k",
		why:   "the real daemon through its HTTP handler, open loop at 200 jobs/s beside a 100 Hz reader: admission, locks, publish, spans and exposition",
		round: liveRound,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// clusterSeed fixes every random cluster. The cluster is the deployment,
// not the traffic: cluster.Random draws instance prices from the seed, and
// a run-to-run spread in prices would drown any change in the program.
// --seed draws the jobs.
const clusterSeed = 1

// scaled shrinks a count, keeping enough for the workload to still have
// a first epoch, a steady state and a drain.
func scaled(n int, scale float64, min int) int {
	if m := int(math.Round(float64(n) * scale)); m > min {
		return m
	}
	return min
}

// serveSimOptions are the options serve.New gives its simulator, so that
// a stream workload steps exactly the simulation the daemon would.
func serveSimOptions() sim.Options {
	return sim.Options{
		Metrics:          obs.NewRegistry(),
		MetricsSampleSec: serveEpochSec,
		MaxEvents:        math.MaxInt64 / 2,
	}
}

// serveEpochSec is serve.Config's default EpochSimSec.
const serveEpochSec = 60

// tenants is how many tenant names the generated jobs rotate through.
const tenants = 8

// grepJobs makes n grep submissions the way the daemon's admit step
// builds them. Input sizes cycle through [lo, hi] blocks and access
// fractions through n strata of [0.5, 1), and both are then shuffled:
// every seed offers the same work, to within a stratum, in another order
// and pairing, so what differs between seeds is the program's response
// to its input, not the luck of the draw. The access fraction makes task lengths continuous; without it
// every grep task on this cluster takes the same 42.048 s and the
// simulated latencies collapse onto one value. Origins go round-robin
// over the stores from a seeded start, as Daemon.nextOrigin does. Jobs
// are numbered from first.
func grepJobs(rng *rand.Rand, c *cluster.Cluster, first, n, lo, hi int) []arrival {
	blocks := make([]int, n)
	access := make([]float64, n)
	for i := range blocks {
		blocks[i] = lo + i%(hi-lo+1)
		access[i] = 0.5 + 0.5*(float64(i)+rng.Float64())/float64(n)
	}
	rng.Shuffle(n, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	rng.Shuffle(n, func(i, j int) { access[i], access[j] = access[j], access[i] })
	origin := rng.Intn(len(c.Stores))
	out := make([]arrival, n)
	for i := range out {
		name := fmt.Sprintf("grep-%d", first+i)
		out[i] = arrival{
			job: workload.Job{
				Name: name, Archetype: workload.Grep.Name,
				User:        fmt.Sprintf("tenant-%d", rng.Intn(tenants)),
				AccessFrac:  access[i],
				CPUSecPerMB: workload.Grep.CPUSecPerMB(),
			},
			obj: hdfs.DataObject{
				Name: name, SizeMB: float64(blocks[i]) * 64,
				Origin: c.Stores[(origin+i)%len(c.Stores)].ID,
			},
		}
	}
	return out
}

type streamParams struct {
	nodes, types       int
	epochs, perEpoch   int // admission epochs and jobs admitted in each
	loBlocks, hiBlocks int
	colgen             bool
	// churnEvery, when set, takes a node down every that many epochs and
	// brings it back half a period later.
	churnEvery int
}

// streamRound is the stream-* family: a closed loop by construction,
// since the next epoch's jobs are admitted when the previous StepUntil
// returns.
func streamRound(p streamParams) func(int64, float64, *tracer) (*round, error) {
	return func(seed int64, scale float64, tr *tracer) (*round, error) {
		r := newRound()
		t0 := time.Now()
		c := cluster.Random(rand.New(rand.NewSource(clusterSeed)), cluster.RandomSpec{Nodes: p.nodes, Types: p.types})
		r.setup[setupCluster] = time.Since(t0)

		t0 = time.Now()
		rng := rand.New(rand.NewSource(seed))
		epochs := scaled(p.epochs, scale, 3)
		// Epoch 0 is set-up, so it admits the same batch whatever the seed:
		// how long a cold column-generation solve takes depends on its
		// input by a factor of two, and setup_s is to compare programs.
		jobs := grepJobs(rand.New(rand.NewSource(clusterSeed)), c, 0, p.perEpoch, p.loBlocks, p.hiBlocks)
		jobs = append(jobs, grepJobs(rng, c, p.perEpoch, (epochs-1)*p.perEpoch, p.loBlocks, p.hiBlocks)...)
		arrivals := make([][]arrival, epochs)
		for e := range arrivals {
			arrivals[e] = jobs[e*p.perEpoch : (e+1)*p.perEpoch]
		}
		victims := rng.Perm(p.nodes)
		r.setup[setupWorkload] = time.Since(t0)

		spec := simSpec{
			sched: func() sim.Scheduler {
				l := sched.NewLiPS(serveEpochSec)
				l.ColGen = p.colgen
				return l
			},
			opts: serveSimOptions(), stepSec: serveEpochSec, arrivals: arrivals,
		}
		if p.churnEvery > 0 {
			spec.fault = func(e int) (sim.Fault, bool) {
				victim := cluster.NodeID(victims[e/p.churnEvery%len(victims)])
				switch e % p.churnEvery {
				case p.churnEvery / 2:
					return sim.Fault{Kind: sim.FaultNodeDown, Node: victim}, true
				case p.churnEvery - 1:
					return sim.Fault{Kind: sim.FaultNodeUp, Node: victim}, true
				}
				return sim.Fault{}, false
			}
		}
		res, err := r.drive(c, &workload.Workload{}, nil, spec, tr)
		if err != nil {
			return nil, err
		}
		r.out = res.out
		r.replay = &replayInput{c: c, jobs: jobs, horizon: serveEpochSec, colgen: p.colgen}
		return r, nil
	}
}

// batchTasks is batch-10k-scale's size; the event loop runs about a
// million tasks a second on the reference box.
const batchTasks = 2_000_000

// batchRound is experiments.Scale's 10k rung stepped in serve epochs:
// every job is in the workload sim.New receives and arrives at t = 0.
func batchRound(seed int64, scale float64, tr *tracer) (*round, error) {
	r := newRound()
	t0 := time.Now()
	c := cluster.Random(rand.New(rand.NewSource(clusterSeed)), cluster.RandomSpec{Nodes: 10000})
	r.setup[setupCluster] = time.Since(t0)

	t0 = time.Now()
	rng := rand.New(rand.NewSource(seed))
	w := workload.Random(rng, c.StoreIDs(), workload.RandomSpec{TotalTasks: scaled(batchTasks, scale, 1000)})
	p := w.Placement()
	p.Shuffle(rng, c.StoreIDs())
	r.setup[setupWorkload] = time.Since(t0)

	res, err := r.drive(c, w, p, simSpec{
		sched:   func() sim.Scheduler { return sched.NewScale() },
		stepSec: serveEpochSec,
	}, tr)
	if err != nil {
		return nil, err
	}
	r.out = res.out
	return r, nil
}

// paperDay seeds the SWIM day paper100-swim replays. The day is fixed:
// SWIM's job sizes are heavy-tailed (eight of 400 jobs carry half the
// maps), so a fresh day per seed moves the dollars by ±20 % and hides
// any drift in the program; and days 42, 7 and 8 end in "solver status
// iteration limit" at HEAD. --seed draws the initial block placement.
const paperDay = 1

// paperEpochSec is experiments.Fig9Epoch, LiPS's epoch on the 100-node
// testbed, and the step the driver advances all three schedulers by.
const paperEpochSec = 600

// paperRound is experiments.Fig9 at paper scale with the day and the
// placement seeded apart: the same cluster, workload generator, placement
// shuffle and per-scheduler options, each scheduler on a fresh copy.
func paperRound(seed int64, scale float64, tr *tracer) (*round, error) {
	r := newRound()
	swim := workload.DefaultSWIMSpec()
	swim.Jobs = scaled(swim.Jobs, scale, 12)
	swim.DurationSec *= float64(swim.Jobs) / float64(workload.DefaultSWIMSpec().Jobs)
	runners := []simSpec{
		{sched: func() sim.Scheduler { return sched.NewFIFO() }},
		{sched: func() sim.Scheduler { return sched.NewDelay() }},
		{sched: func() sim.Scheduler { return sched.NewLiPS(paperEpochSec) }, opts: sim.Options{TaskTimeoutSec: 1200}},
	}
	var costs []int64
	for _, spec := range runners {
		t0 := time.Now()
		c := cluster.Paper100()
		r.setup[setupCluster] += time.Since(t0)

		t0 = time.Now()
		w := workload.SWIM(rand.New(rand.NewSource(paperDay)), c.StoreIDs(), swim)
		p := w.Placement()
		p.Shuffle(rand.New(rand.NewSource(seed)), c.StoreIDs())
		r.setup[setupWorkload] += time.Since(t0)

		spec.stepSec = paperEpochSec
		res, err := r.drive(c, w, p, spec, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.sched().Name(), err)
		}
		costs = append(costs, res.out.costUC)
		// The last runner is LiPS, the system under test.
		r.out = res.out
		r.replay = &replayInput{c: c, horizon: paperEpochSec}
		for _, j := range w.Jobs {
			r.replay.jobs = append(r.replay.jobs, arrival{job: j, obj: w.Objects[j.Object]})
		}
	}
	delay, lips := costs[1], costs[2]
	r.layer["paper.cost_delay_usd"] = float64(delay) / 1e8
	r.layer["paper.cost_saving_vs_delay_pct"] = 100 * (1 - float64(lips)/float64(delay))
	return r, nil
}
