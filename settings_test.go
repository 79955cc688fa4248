package lips

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"lips/internal/cluster"
	"lips/internal/core"
	"lips/internal/experiments"
	"lips/internal/lp"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/serve"
	"lips/internal/sim"
	"lips/internal/workload"
)

// settingTypes are the option structs a caller fills in to configure a
// solve, a run, a scheduler, the daemon or an input generator.
var settingTypes = []any{
	lp.Options{},
	core.InstanceOptions{},
	core.ColGenOptions{},
	sim.Options{},
	sim.FaultSpec{},
	sched.LiPS{},
	sched.Delay{},
	sched.Fair{},
	sched.Quincy{},
	serve.Config{},
	obs.SLO{},
	cluster.RandomSpec{},
	workload.RandomSpec{},
	workload.SWIMSpec{},
	experiments.Config{},
}

// resultFields are exported fields a run fills in for its caller to read;
// setting one changes nothing.
var resultFields = map[string]bool{
	"sched.LiPS.Epochs":      true,
	"sched.LiPS.SolveTime":   true,
	"sched.LiPS.LPIters":     true,
	"sched.LiPS.TasksMoved":  true,
	"sched.LiPS.BlocksMoved": true,
	"sched.LiPS.Solver":      true,
	"sched.LiPS.Err":         true,
	"sched.Fair.Preemptions": true,
	"sched.Quincy.Rounds":    true,
}

// settings lists, one per line, every exported field of settingTypes a
// caller can set to change behaviour: embedded structs and resultFields
// are left out.
func settings() string {
	var b strings.Builder
	for _, v := range settingTypes {
		t := reflect.TypeOf(v)
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := t.String() + "." + f.Name
			if !f.IsExported() || f.Anonymous || resultFields[name] {
				continue
			}
			fmt.Fprintf(&b, "%s %s\n", name, f.Type)
		}
	}
	return b.String()
}

// TestSettingsGolden pins the settable surface to testdata/settings.golden,
// one line per setting, so a change that adds or deletes one shows as a
// diff of that file. There is no update flag: the file is edited by hand.
func TestSettingsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/settings.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := settings()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("line %d:\n got: %q\nwant: %q", i+1, gl, wl)
		}
	}
}
