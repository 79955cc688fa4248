package sched

import (
	"math/rand"
	"testing"

	"lips/internal/hdfs"
	"lips/internal/sim"
	"lips/internal/workload"
)

// serveJob submits one grep-shaped job into a live run, the way the
// lips-serve daemon does.
func serveJob(t *testing.T, s *sim.Sim, name string, user string) int {
	t.Helper()
	j, err := s.AddJob(workload.Job{
		Name: name, User: user, Archetype: workload.Grep.Name,
		CPUSecPerMB: workload.Grep.CPUSecPerMB(), AccessFrac: 1,
	}, &hdfs.DataObject{Name: name, SizeMB: 4 * 64, Origin: 0})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func drainServe(t *testing.T, s *sim.Sim, from float64) {
	t.Helper()
	for i := 1; !s.Drained(); i++ {
		if err := s.StepUntil(from + float64(i)*60); err != nil {
			t.Fatal(err)
		}
		if i > 10000 {
			t.Fatal("run never drained")
		}
	}
}

// TestLiPSArrivalAfterDrain is the serve-mode regression for the epoch
// chain: once the last job finishes, LiPS's tick stops re-arming; a job
// arriving after that quiet period must restart the chain on the next
// epoch boundary or it hangs forever (the bug this PR fixes).
func TestLiPSArrivalAfterDrain(t *testing.T) {
	for _, l := range []*LiPS{NewLiPS(60), NewLiPS(30)} {
		s := sim.New(mixedCluster(), &workload.Workload{}, nil, l, sim.Options{})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		// A first burst, fully drained...
		serveJob(t, s, "a", "u1")
		drainServe(t, s, 0)
		quiet := s.Now() + 600
		if err := s.StepUntil(quiet); err != nil {
			t.Fatal(err)
		}
		// ...then a straggler long after the chain went idle.
		j := serveJob(t, s, "b", "u2")
		drainServe(t, s, quiet)
		if l.Err != nil {
			t.Fatalf("%s: %v", l.Name(), l.Err)
		}
		if s.JobDoneAt(j) <= quiet {
			t.Errorf("%s: straggler doneAt = %g, want > %g", l.Name(), s.JobDoneAt(j), quiet)
		}
		// The revived tick must land on the epoch grid, not mid-epoch:
		// LiPS's patience (batching arrivals until the boundary) survives.
		if fl := s.JobSpan(j).FirstLaunchSim; fl < quiet {
			t.Errorf("%s: first launch %g (-1 = never), want on an epoch at or after %g", l.Name(), fl, quiet)
		}
	}
}

// TestScaleArrivalGrowsCursors: a dynamically added job index beyond the
// initial workload must not send Scale's per-job cursor slice out of
// bounds.
func TestScaleArrivalGrowsCursors(t *testing.T) {
	sc := NewScale()
	s := sim.New(mixedCluster(), &workload.Workload{}, nil, sc, sim.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		serveJob(t, s, "j", "u")
	}
	drainServe(t, s, 0)
	if n := s.NumJobs(); n != 5 {
		t.Fatalf("drained %d jobs, want 5", n)
	}
	_ = sc
}

// TestFairArrivalJoinsPool: a job submitted mid-run by a brand-new user
// must be placed in that user's pool (not silently dropped from the
// fair-share accounting).
func TestFairArrivalJoinsPool(t *testing.T) {
	f := NewFair()
	s := sim.New(mixedCluster(), &workload.Workload{}, nil, f, sim.Options{})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	serveJob(t, s, "a", "u1")
	drainServe(t, s, 0)
	quiet := s.Now() + 600
	if err := s.StepUntil(quiet); err != nil {
		t.Fatal(err)
	}
	j := serveJob(t, s, "b", "newcomer")
	drainServe(t, s, quiet)
	if s.JobDoneAt(j) <= quiet {
		t.Fatalf("newcomer's job never finished (doneAt %g)", s.JobDoneAt(j))
	}
	if got := s.UserCPU["newcomer"]; got <= 0 {
		t.Errorf("newcomer accrued %g ECU-sec — not in the fair-share books", got)
	}
}

// TestSchedulerReInit reuses one scheduler value across two full runs;
// run-scoped state (epoch counters, warm bases, cursors, pool maps) must
// reset so both runs are bit-identical.
func TestSchedulerReInit(t *testing.T) {
	for _, tc := range []struct {
		name string
		sch  sim.Scheduler
	}{
		{"lips", NewLiPS(60)},
		{"scale", NewScale()},
		{"fair", NewFair()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first, second *sim.Result
			for i := 0; i < 2; i++ {
				w := smallJobSet(rand.New(rand.NewSource(7)), 3)
				r := runSched(t, mixedCluster(), w, nil, tc.sch, sim.Options{})
				if i == 0 {
					first = r
				} else {
					second = r
				}
			}
			if first.Makespan != second.Makespan || first.Cost.Total() != second.Cost.Total() {
				t.Errorf("reuse drifted: run1 %g/%v, run2 %g/%v",
					first.Makespan, first.Cost.Total(), second.Makespan, second.Cost.Total())
			}
		})
	}
}
