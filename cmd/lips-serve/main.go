// lips-serve runs the LiPS co-scheduler as a long-lived daemon: an HTTP
// API accepting streaming job submissions (submit/status/cancel, with
// per-tenant fair-share admission), a continuously advancing simulated
// cluster, and an epoch loop re-solving the scheduling plan. The
// observability endpoints (/metrics, /progress, /healthz, /readyz,
// /debug/pprof) and the explainability endpoints
// (/jobs/{id}/trace, /debug/epochs, /debug/spans, /tenants, /alerts,
// /audit) share the same listener; -log-level and -log-format tune the
// structured log stream on stderr. -slo-e2e/-slo-queue-wait arm the
// per-tenant burn-rate alerting, and repeatable -budget tenant=dollars
// caps a tenant's spend (exhausted tenants defer with budget-exhausted).
//
//	lips-serve -listen 127.0.0.1:8080 -cluster random -nodes 1000
//	curl -XPOST -d '{"tenant":"t0","archetype":"grep","input_mb":256}' \
//	    http://127.0.0.1:8080/submit
//
// SIGINT/SIGTERM drain gracefully: new submissions get 503, in-flight
// jobs run to completion (bounded by -drain-timeout), then the process
// exits 0. A rejected flag exits 2; a cluster the daemon refuses, a
// listen address that cannot be bound and an epoch-loop or HTTP-server
// failure exit 1.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lips/internal/cluster"
	"lips/internal/obs"
	"lips/internal/sched"
	"lips/internal/serve"
)

func main() {
	var (
		listen      = flag.String("listen", "127.0.0.1:8080", "HTTP listen address")
		clusterKind = flag.String("cluster", "paper20", "paper20, paper100 or random")
		fracC1      = flag.Float64("frac-c1", 0.5, "fraction of c1.medium nodes for -cluster paper20")
		nodes       = flag.Int("nodes", 1000, "node count for -cluster random")
		seed        = flag.Int64("seed", 1, "random seed for -cluster random")
		scheduler   = flag.String("scheduler", "lips", "lips, fair or scale")
		epoch       = flag.Float64("epoch", 0, "LiPS planning epoch in seconds (0 = the -epoch-sim value)")
		colGen      = flag.Bool("colgen", false, "solve LiPS epochs by column generation (large clusters)")
		epochSim    = flag.Float64("epoch-sim", 60, "simulated seconds advanced per serve epoch")
		epochWall   = flag.Duration("epoch-wall", 25*time.Millisecond, "wall-clock pacing between serve epochs")
		queueCap    = flag.Int("queue-cap", 4096, "admission queue bound (429 beyond it)")
		admitPer    = flag.Int("admit-per-epoch", 512, "max jobs admitted into the simulation per epoch")
		retryAfter  = flag.Int("retry-after", 1, "Retry-After seconds on 429/503")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "max drain time at shutdown")
		sloE2E      = flag.Float64("slo-e2e", 0, "per-tenant e2e latency objective in simulated seconds (0 = off)")
		sloQueue    = flag.Float64("slo-queue-wait", 0, "per-tenant queue-wait objective in simulated seconds (0 = off)")
		sloBudget   = flag.Float64("slo-budget", 0.05, "SLO error budget (allowed violation fraction)")
		sloShort    = flag.Float64("slo-short", 300, "short burn-rate window in simulated seconds")
		sloLong     = flag.Float64("slo-long", 1800, "long burn-rate window in simulated seconds")
	)
	budgets := make(map[string]float64)
	flag.Func("budget", "tenant=dollars spend cap, repeatable (e.g. -budget alice=2.50)", func(v string) error {
		tenant, usd, ok := strings.Cut(v, "=")
		if !ok || tenant == "" {
			return fmt.Errorf("want tenant=dollars, got %q", v)
		}
		amount, err := strconv.ParseFloat(usd, 64)
		if err != nil || amount <= 0 {
			return fmt.Errorf("bad dollar amount %q", usd)
		}
		budgets[tenant] = amount
		return nil
	})
	cli := obs.NewCLI("lips-serve", 0)
	cli.Start()
	if *nodes < 1 {
		cli.Usagef("-nodes must be at least 1, got %d", *nodes)
	}
	c, err := cluster.ByName(*clusterKind, *fracC1, *nodes, rand.New(rand.NewSource(*seed)))
	if err != nil {
		cli.Usagef("%v", err)
	}

	if *epoch == 0 {
		*epoch = *epochSim
	}
	if *scheduler != "lips" && *scheduler != "fair" && *scheduler != "scale" {
		cli.Usagef("unknown scheduler %q (want lips, fair or scale)", *scheduler)
	}
	sch, err := sched.ByName(*scheduler, *epoch)
	if err != nil {
		cli.Usagef("%v", err)
	}
	if l, ok := sch.(*sched.LiPS); ok {
		l.ColGen = *colGen
	}

	reg := obs.NewRegistry()
	d, err := serve.New(c, sch, reg, serve.Config{
		EpochSimSec:       *epochSim,
		EpochWallInterval: *epochWall,
		QueueCap:          *queueCap,
		AdmitPerEpoch:     *admitPer,
		RetryAfterSec:     *retryAfter,
		DrainTimeout:      *drain,
		Logger:            cli.Logger,
		SLOE2ESec:         *sloE2E,
		SLOQueueWaitSec:   *sloQueue,
		SLOBudget:         *sloBudget,
		SLOShortSec:       *sloShort,
		SLOLongSec:        *sloLong,
		Budgets:           budgets,
	})
	cli.ExitOn(err)
	srv, err := obs.ServeHandler(*listen, d.Handler())
	cli.ExitOn(err)
	d.Start()
	fmt.Printf("lips-serve: %d nodes, scheduler %s, epoch %.0fs sim / %s wall\n",
		len(c.Nodes), sch.Name(), *epochSim, *epochWall)
	fmt.Printf("lips-serve: listening on %s\n", srv.URL())
	cli.Logger.Info("listening", "url", srv.URL(), "nodes", len(c.Nodes), "scheduler", sch.Name())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("lips-serve: draining")
	code := 0
	if err := d.Shutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "lips-serve: %v\n", err)
		code = 1
	}
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "lips-serve: http: %v\n", err)
		code = 1
	}
	fmt.Println("lips-serve: stopped")
	os.Exit(code)
}
