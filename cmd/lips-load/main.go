// lips-load drives a lips-serve daemon with open-loop load: submissions
// fire at a fixed rate regardless of how fast the daemon answers, so a
// slow or saturated daemon accumulates in-flight requests instead of
// silently throttling the generator (the coordinated-omission trap).
//
//	lips-load -addr http://127.0.0.1:8080 -rate 500 -total 1000
//
// It prints a JSON summary with latency quantiles over every submission
// that got an HTTP response — 429s included, since fast load-shedding is
// exactly what backpressure promises. With -slo-p99-ms set, a p99 above
// the bound exits 1. -tenant-weights skews the tenant mix (5,1,1,1 puts
// ~5/8 of submissions on tenant-0) without changing the pacing schedule.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"lips/internal/obs"
)

type summary struct {
	Sent     int     `json:"sent"`
	Accepted int     `json:"accepted"`
	Rejected int     `json:"rejected"` // 429: shed by backpressure
	Draining int     `json:"draining"` // 503: daemon shutting down
	Errors   int     `json:"errors"`   // transport failures and 4xx/5xx beyond the above
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "lips-serve base URL")
		rate     = flag.Float64("rate", 200, "submissions per second (open loop)")
		total    = flag.Int("total", 1000, "submissions to send")
		tenants  = flag.Int("tenants", 4, "tenant names to rotate through")
		weights  = flag.String("tenant-weights", "", "comma-separated integer weights skewing the tenant mix (e.g. 5,1,1,1); the count overrides -tenants")
		arch     = flag.String("archetype", "grep", "archetype to submit")
		inputMB  = flag.Float64("input-mb", 256, "input size per job (input archetypes)")
		tasks    = flag.Int("tasks", 8, "tasks per job (pi archetype)")
		seed     = flag.Int64("seed", 1, "seed for the tenant rotation jitter")
		sloP99Ms = flag.Float64("slo-p99-ms", 0, "exit 1 if p99 submit latency exceeds this (0 = off)")
		outCSV   = flag.String("out-csv", "", "write one CSV row per request (seq,tenant,status,latency_ms,retry_after_sec)")
	)
	cli := obs.NewCLI("lips-load", 0)
	cli.Start()
	if *rate <= 0 || *total <= 0 || *tenants <= 0 {
		cli.Usagef("-rate, -total and -tenants must be positive")
	}
	pick, err := tenantPicker(*tenants, *weights)
	if err != nil {
		cli.Usagef("%v", err)
	}
	cli.Logger.Debug("load config", "addr", *addr, "rate", *rate, "total", *total, "tenants", *tenants, "weights", *weights)

	client := &http.Client{Timeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(*seed))
	interval := time.Duration(float64(time.Second) / *rate)
	start := time.Now()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		sum       summary
		latencies = make([]float64, 0, *total)
		rows      []requestRow
	)
	if *outCSV != "" {
		rows = make([]requestRow, *total)
	}
	for i := 0; i < *total; i++ {
		// Open loop: pace off the schedule, not off responses.
		next := start.Add(time.Duration(i) * interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		tenant := fmt.Sprintf("tenant-%d", pick(rng))
		wg.Add(1)
		go func(seq int, tenant string) {
			defer wg.Done()
			code, ms, retryAfter := submit(client, *addr, tenant, *arch, *inputMB, *tasks)
			mu.Lock()
			defer mu.Unlock()
			if rows != nil {
				rows[seq] = requestRow{tenant: tenant, status: code, ms: ms, retryAfter: retryAfter}
			}
			sum.Sent++
			switch {
			case code == http.StatusAccepted:
				sum.Accepted++
			case code == http.StatusTooManyRequests:
				sum.Rejected++
			case code == http.StatusServiceUnavailable:
				sum.Draining++
			default:
				sum.Errors++
			}
			if ms >= 0 {
				latencies = append(latencies, ms)
			}
		}(i, tenant)
	}
	wg.Wait()

	if *outCSV != "" {
		cli.ExitOn(writeCSV(*outCSV, rows))
	}

	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		sum.P50Ms = latencies[n/2]
		sum.P99Ms = latencies[n*99/100]
		sum.MaxMs = latencies[n-1]
	}
	out, _ := json.MarshalIndent(sum, "", "  ")
	fmt.Println(string(out))

	if sum.Errors > 0 {
		cli.ExitOn(fmt.Errorf("%d submissions errored", sum.Errors))
	}
	if *sloP99Ms > 0 && sum.P99Ms > *sloP99Ms {
		cli.ExitOn(fmt.Errorf("p99 %.2fms over SLO %.2fms", sum.P99Ms, *sloP99Ms))
	}
}

// tenantPicker returns the tenant-index sampler. With no -tenant-weights
// the n tenants are uniform; with weights like "5,1,1,1" each index is
// drawn in proportion to its weight (and the weight count sets the
// tenant count), so a chargeback test can steer most of the spend onto
// one hog tenant without touching the submission schedule.
func tenantPicker(n int, weights string) (func(*rand.Rand) int, error) {
	if weights == "" {
		return func(rng *rand.Rand) int { return rng.Intn(n) }, nil
	}
	parts := strings.Split(weights, ",")
	w := make([]int, len(parts))
	sum := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("-tenant-weights: want positive integers, got %q", p)
		}
		if v > math.MaxInt-sum {
			return nil, fmt.Errorf("-tenant-weights: the weights sum past %d", math.MaxInt)
		}
		w[i] = v
		sum += v
	}
	return func(rng *rand.Rand) int {
		r := rng.Intn(sum)
		for i, v := range w {
			if r < v {
				return i
			}
			r -= v
		}
		return len(w) - 1 // unreachable: the weights sum to sum
	}, nil
}

// requestRow is one per-request CSV record, indexed by send order.
type requestRow struct {
	tenant     string
	status     int
	ms         float64
	retryAfter int
}

// writeCSV dumps the per-request log: one row per submission in send
// order, with the Retry-After seconds the daemon attached to 429/503
// responses (0 otherwise).
func writeCSV(path string, rows []requestRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "seq,tenant,status,latency_ms,retry_after_sec")
	for i, r := range rows {
		fmt.Fprintf(w, "%d,%s,%d,%.3f,%d\n", i, r.tenant, r.status, r.ms, r.retryAfter)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// submit POSTs one job and returns the HTTP status (0 on transport
// failure), the wall latency in milliseconds (-1 on failure), and the
// Retry-After header seconds (0 when absent).
func submit(client *http.Client, addr, tenant, arch string, inputMB float64, tasks int) (int, float64, int) {
	req := map[string]any{"tenant": tenant, "archetype": arch}
	if arch == "pi" {
		req["tasks"] = tasks
	} else {
		req["input_mb"] = inputMB
	}
	body, _ := json.Marshal(req)
	t0 := time.Now()
	resp, err := client.Post(addr+"/submit", "application/json", bytes.NewReader(body))
	ms := float64(time.Since(t0).Microseconds()) / 1000
	if err != nil {
		return 0, -1, 0
	}
	retryAfter, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	return resp.StatusCode, ms, retryAfter
}
