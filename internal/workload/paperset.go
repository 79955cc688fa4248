package workload

import (
	"fmt"
	"math/rand"

	"lips/internal/cluster"
)

// PaperJobSet builds the paper's Table IV job set J1–J9:
//
//	J1–J2: Pi, 4 tasks each, no input
//	J3–J4: WordCount, 10 GB input (160 blocks/tasks)
//	J5–J7: Grep, 20 GB input (320 blocks/tasks)
//	J8–J9: Stress2, 10 GB input (160 blocks/tasks)
//
// Total: 1608 map tasks over 100 GB of input. Input objects are placed on
// origin stores drawn uniformly from origins (pre-loaded HDFS data), using
// rng for reproducibility. All jobs arrive at time 0, matching the
// paper's batch-style runs.
func PaperJobSet(rng *rand.Rand, origins []cluster.StoreID) *Workload {
	if len(origins) == 0 {
		panic("workload: PaperJobSet needs at least one origin store")
	}
	pick := func() cluster.StoreID { return origins[rng.Intn(len(origins))] }
	const gb = 1024.0
	b := NewBuilder()
	b.AddNoInputJob("J1", "user1", 4, PiTaskCPUSec, 0)
	b.AddNoInputJob("J2", "user1", 4, PiTaskCPUSec, 0)
	b.AddInputJob("J3", "user2", WordCount, 10*gb, pick(), 0)
	b.AddInputJob("J4", "user2", WordCount, 10*gb, pick(), 0)
	b.AddInputJob("J5", "user3", Grep, 20*gb, pick(), 0)
	b.AddInputJob("J6", "user3", Grep, 20*gb, pick(), 0)
	b.AddInputJob("J7", "user3", Grep, 20*gb, pick(), 0)
	b.AddInputJob("J8", "user4", Stress2, 10*gb, pick(), 0)
	b.AddInputJob("J9", "user4", Stress2, 10*gb, pick(), 0)
	w := b.Build()
	if got := w.TotalTasks(); got != 1608 {
		panic(fmt.Sprintf("workload: paper job set has %d tasks, want 1608", got))
	}
	return w
}

// RandomSpec sizes Random.
type RandomSpec struct {
	// TotalTasks is the approximate number of map tasks to generate
	// ("J" on the Fig. 5 x-axis).
	TotalTasks int
}

// The Fig. 5 caption's ranges: per-job input up to 6 GB, and per-job CPU
// work up to 1000 ECU-seconds for a no-input job. Each job is a no-input
// one with probability cpuJobFraction.
const (
	maxInputGB     = 6
	maxJobCPUSec   = 1000
	cpuJobFraction = 0.2
)

// Random builds a random workload per the Fig. 5 simulation setup: jobs
// with input sizes uniform in (0, 6 GB] and CPU intensity drawn from the
// Table I archetypes, plus a fraction of pure-CPU jobs with total work
// uniform in (0, 1000] ECU-seconds. Jobs are appended until TotalTasks map
// tasks exist.
func Random(rng *rand.Rand, origins []cluster.StoreID, spec RandomSpec) *Workload {
	if len(origins) == 0 {
		panic("workload: Random needs at least one origin store")
	}
	inputArchs := []Archetype{Grep, Stress1, Stress2, WordCount}
	b := NewBuilder()
	tasks := 0
	for i := 0; tasks < spec.TotalTasks; i++ {
		name := fmt.Sprintf("rand-%d", i)
		user := fmt.Sprintf("user%d", rng.Intn(4))
		if rng.Float64() < cpuJobFraction {
			n := 1 + rng.Intn(8)
			per := (0.05 + 0.95*rng.Float64()) * maxJobCPUSec / float64(n)
			b.AddNoInputJob(name, user, n, per, 0)
			tasks += n
			continue
		}
		a := inputArchs[rng.Intn(len(inputArchs))]
		sizeMB := (0.05 + 0.95*rng.Float64()) * maxInputGB * 1024
		origin := origins[rng.Intn(len(origins))]
		j := b.AddInputJob(name, user, a, sizeMB, origin, 0)
		tasks += j.NumTasks
	}
	return b.Build()
}
