// Package workload models MapReduce jobs and the workloads used in the
// LiPS paper: the Table I benchmark archetypes (Grep, Stress, WordCount,
// Pi), the Table IV job set J1–J9, the random workloads of the Fig. 5
// simulation, and a SWIM-like Facebook trace synthesizer for the 100-node
// experiments (Fig. 9/10).
package workload

import (
	"fmt"
	"math"

	"lips/internal/cluster"
	"lips/internal/hdfs"
)

// Property classifies an archetype's resource profile (Table I).
type Property string

// Archetype resource profiles.
const (
	IOBound  Property = "I/O"
	CPUBound Property = "CPU"
	Mixed    Property = "Mixed"
)

// Archetype is a benchmark program with a characteristic CPU intensity.
// CPUSecPerBlock is the paper's Table I row: EC2-compute-unit seconds
// needed per 64 MB input block. Pi has no input at all; its intensity is
// +Inf and its work is expressed per task instead.
type Archetype struct {
	Name           string
	Property       Property
	CPUSecPerBlock float64 // ECU-seconds per 64 MB block; +Inf for Pi
	CPUSecPerTask  float64 // for no-input archetypes (Pi)
}

// HasInput reports whether the archetype reads input data.
func (a Archetype) HasInput() bool { return !math.IsInf(a.CPUSecPerBlock, 1) }

// CPUSecPerMB returns TCP(x): ECU-seconds per megabyte of input.
func (a Archetype) CPUSecPerMB() float64 { return a.CPUSecPerBlock / 64 }

// Table I of the paper. PiTaskCPUSec is our calibration for the Pi
// estimator (1 billion samples per task): the paper gives no per-task
// seconds, so we pick a value comparable to the heavier input-driven tasks.
const PiTaskCPUSec = 300

var (
	Grep      = Archetype{Name: "grep", Property: IOBound, CPUSecPerBlock: 20}
	Stress1   = Archetype{Name: "stress1", Property: IOBound, CPUSecPerBlock: 37}
	Stress2   = Archetype{Name: "stress2", Property: Mixed, CPUSecPerBlock: 75}
	WordCount = Archetype{Name: "wordcount", Property: CPUBound, CPUSecPerBlock: 90}
	Pi        = Archetype{Name: "pi", Property: CPUBound, CPUSecPerBlock: math.Inf(1), CPUSecPerTask: PiTaskCPUSec}
)

// Archetypes lists Table I in column order.
var Archetypes = []Archetype{Grep, Stress1, Stress2, WordCount, Pi}

// ByName returns the archetype with the given name.
func ByName(name string) (Archetype, error) {
	for _, a := range Archetypes {
		if a.Name == name {
			return a, nil
		}
	}
	return Archetype{}, fmt.Errorf("workload: unknown archetype %q", name)
}

// NoObject marks a job without input data.
const NoObject hdfs.ObjectID = -1

// Job is one MapReduce job (the paper's J_k): a bag of identical map
// tasks over one input object (or none, for Pi-style jobs).
type Job struct {
	ID         int
	Name       string
	Archetype  string
	User       string  // pool/owner, used by the fair scheduler
	ArrivalSec float64 // submission time

	NumTasks int
	Object   hdfs.ObjectID // NoObject if the job reads no input
	InputMB  float64       // 0 if no input

	// AccessFrac is the paper's fractional JD entry (§III): the ratio of
	// the job's expected data traffic to the object's total size. Full
	// scans use 1; an index lookup or column projection reads less.
	// Zero is treated as 1 for backward compatibility.
	AccessFrac float64

	// CPUSecPerMB is TCP(k) for input jobs; CPUSecPerTask is the
	// per-task work for no-input jobs.
	CPUSecPerMB   float64
	CPUSecPerTask float64
}

// EffectiveAccessFrac returns AccessFrac, defaulting to a full scan.
func (j *Job) EffectiveAccessFrac() float64 {
	if j.AccessFrac <= 0 {
		return 1
	}
	return j.AccessFrac
}

// HasInput reports whether the job reads input data.
func (j *Job) HasInput() bool { return j.Object != NoObject }

// TotalCPUSec returns CPU(J): the job's total ECU-second demand.
func (j *Job) TotalCPUSec() float64 {
	if j.HasInput() {
		return j.CPUSecPerMB * j.InputMB * j.EffectiveAccessFrac()
	}
	return float64(j.NumTasks) * j.CPUSecPerTask
}

// Workload is a job set plus the data objects the jobs read.
type Workload struct {
	Jobs    []Job
	Objects []hdfs.DataObject
}

// TotalTasks sums NumTasks over all jobs.
func (w *Workload) TotalTasks() int {
	n := 0
	for _, j := range w.Jobs {
		n += j.NumTasks
	}
	return n
}

// TotalInputMB sums input sizes over all jobs.
func (w *Workload) TotalInputMB() float64 {
	mb := 0.0
	for _, j := range w.Jobs {
		mb += j.InputMB
	}
	return mb
}

// TotalCPUSec sums CPU demand over all jobs.
func (w *Workload) TotalCPUSec() float64 {
	s := 0.0
	for _, j := range w.Jobs {
		s += j.TotalCPUSec()
	}
	return s
}

// Placement builds the initial hdfs placement of the workload's objects
// (each object fully on its origin store).
func (w *Workload) Placement() *hdfs.Placement {
	return hdfs.NewPlacement(w.Objects)
}

// Validate checks job/object cross-references and task counts.
func (w *Workload) Validate() error {
	for i, j := range w.Jobs {
		if j.ID != i {
			return fmt.Errorf("workload: job %d has ID %d", i, j.ID)
		}
		if j.NumTasks <= 0 {
			return fmt.Errorf("workload: job %q has %d tasks", j.Name, j.NumTasks)
		}
		if j.HasInput() {
			if int(j.Object) >= len(w.Objects) {
				return fmt.Errorf("workload: job %q references object %d", j.Name, j.Object)
			}
			obj := w.Objects[j.Object]
			if j.NumTasks != obj.NumBlocks() {
				return fmt.Errorf("workload: job %q has %d tasks for %d blocks", j.Name, j.NumTasks, obj.NumBlocks())
			}
			if j.InputMB != obj.SizeMB {
				return fmt.Errorf("workload: job %q InputMB %g != object size %g", j.Name, j.InputMB, obj.SizeMB)
			}
			if j.CPUSecPerMB < 0 {
				return fmt.Errorf("workload: job %q has negative TCP", j.Name)
			}
			if j.AccessFrac < 0 || j.AccessFrac > 1 {
				return fmt.Errorf("workload: job %q has access fraction %g", j.Name, j.AccessFrac)
			}
		} else if j.CPUSecPerTask <= 0 {
			return fmt.Errorf("workload: no-input job %q has CPUSecPerTask %g", j.Name, j.CPUSecPerTask)
		}
	}
	for i, o := range w.Objects {
		if o.ID != hdfs.ObjectID(i) {
			return fmt.Errorf("workload: object %d has ID %d", i, o.ID)
		}
	}
	return nil
}

// Builder assembles a Workload.
type Builder struct {
	w Workload
}

// NewBuilder returns an empty workload builder.
func NewBuilder() *Builder { return &Builder{} }

// AddInputJob adds a job of the given archetype reading a fresh data
// object of sizeMB stored at origin. The task count is the block count.
func (b *Builder) AddInputJob(name, user string, a Archetype, sizeMB float64, origin cluster.StoreID, arrival float64) *Job {
	return b.AddPartialInputJob(name, user, a, sizeMB, 1, origin, arrival)
}

// AddPartialInputJob is AddInputJob with a fractional JD entry: the job
// touches only accessFrac of each input block (paper §III, partial data
// accesses).
func (b *Builder) AddPartialInputJob(name, user string, a Archetype, sizeMB, accessFrac float64, origin cluster.StoreID, arrival float64) *Job {
	if !a.HasInput() {
		panic(fmt.Sprintf("workload: archetype %s takes no input", a.Name))
	}
	obj := hdfs.DataObject{
		ID:     hdfs.ObjectID(len(b.w.Objects)),
		Name:   name + "-input",
		SizeMB: sizeMB,
		Origin: origin,
	}
	b.w.Objects = append(b.w.Objects, obj)
	j := Job{
		ID: len(b.w.Jobs), Name: name, Archetype: a.Name, User: user,
		ArrivalSec: arrival, NumTasks: obj.NumBlocks(), Object: obj.ID,
		InputMB: sizeMB, AccessFrac: accessFrac, CPUSecPerMB: a.CPUSecPerMB(),
	}
	b.w.Jobs = append(b.w.Jobs, j)
	return &b.w.Jobs[len(b.w.Jobs)-1]
}

// AddNoInputJob adds a Pi-style job of numTasks tasks, each needing
// cpuSecPerTask ECU-seconds.
func (b *Builder) AddNoInputJob(name, user string, numTasks int, cpuSecPerTask, arrival float64) *Job {
	j := Job{
		ID: len(b.w.Jobs), Name: name, Archetype: Pi.Name, User: user,
		ArrivalSec: arrival, NumTasks: numTasks, Object: NoObject,
		CPUSecPerTask: cpuSecPerTask,
	}
	b.w.Jobs = append(b.w.Jobs, j)
	return &b.w.Jobs[len(b.w.Jobs)-1]
}

// Build validates and returns the workload.
func (b *Builder) Build() *Workload {
	if err := b.w.Validate(); err != nil {
		panic(err)
	}
	w := b.w
	return &w
}
