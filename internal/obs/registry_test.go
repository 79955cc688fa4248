package obs

import (
	"io"
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %g, want 3.5", got)
	}
	if r.Counter("c_total", "help") != c {
		t.Error("re-registering a counter returned a different handle")
	}

	g := r.Gauge("g", "help")
	g.Set(7)
	g.Set(4)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %g, want 4", got)
	}

	v, ok := r.Value("c_total")
	if !ok || v != 3.5 {
		t.Errorf("Value(c_total) = %g,%v, want 3.5,true", v, ok)
	}
	if _, ok := r.Value("missing"); ok {
		t.Error("Value found a missing family")
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c_total", "help").Add(-1)
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "help")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "help")
}

func TestVecLabelsAndSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("tasks_total", "help", "state")
	v.With("a").Add(2)
	v.With("b").Add(3)
	if got, ok := r.Value("tasks_total", "a"); !ok || got != 2 {
		t.Errorf(`Value(tasks_total,a) = %g,%v, want 2,true`, got, ok)
	}
	if _, ok := r.Value("tasks_total", "zzz"); ok {
		t.Error("Value found a missing label child")
	}
	if got := r.Sum("tasks_total"); got != 5 {
		t.Errorf("Sum = %g, want 5", got)
	}
	if got := r.Sum("missing"); got != 0 {
		t.Errorf("Sum(missing) = %g, want 0", got)
	}
}

// TestHistogramBuckets pins the boundary rule: an observation equal to a
// bucket's upper bound falls into that bucket (le is inclusive), and
// anything above the last bound lands in the +Inf overflow.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "help", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 6, 1e9} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // (≤1)=2, (1,2]=2, (2,5]=1, +Inf=2
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if got := h.Sum(); math.Abs(got-(0.5+1+1.0000001+2+5+6+1e9)) > 1e-6 {
		t.Errorf("sum = %g", got)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 10, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

// TestConcurrentScrape hammers the registry from writer goroutines while
// a reader scrapes continuously — the -race run is the real assertion.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("writes_total", "help")
	g := r.Gauge("level", "help")
	v := r.CounterVec("by_label_total", "help", "k")
	h := r.Histogram("lat", "help", []float64{1, 10, 100})

	const writers, perWriter = 8, 2000
	var writerWG, scraperWG sync.WaitGroup
	stop := make(chan struct{})
	scraperWG.Add(1)
	go func() { // scraper
		defer scraperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := r.WriteProm(io.Discard); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
				r.Sum("by_label_total")
				Snapshot(r)
			}
		}
	}()
	labels := []string{"a", "b", "c"}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Set(float64(i))
				v.With(labels[i%len(labels)]).Inc()
				h.Observe(float64(i % 200))
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	scraperWG.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Errorf("writes_total = %g, want %d", got, writers*perWriter)
	}
	if got := h.Count(); got != writers*perWriter {
		t.Errorf("histogram count = %d, want %d", got, writers*perWriter)
	}
	if got := r.Sum("by_label_total"); got != writers*perWriter {
		t.Errorf("Sum(by_label_total) = %g, want %d", got, writers*perWriter)
	}
}
