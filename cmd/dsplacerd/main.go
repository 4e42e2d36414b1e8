// Command dsplacerd serves the placement flows over HTTP: clients submit
// netlists as JSON jobs, poll for results, cancel mid-flight, and scrape
// Prometheus metrics (DESIGN.md §11).
//
// Usage:
//
//	dsplacerd -addr :8080 -workers 2 -queue-depth 64 -cache-size 64 -ttl 10m
//	dsplacerd -tenant-quota 16 -tenant-weights "interactive=3,batch=1"
//	dsplacerd -cache-listen :7070 -cache-peers host2:7070
//	dsplacerd -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//	dsplacerd -smoke          # in-process self-test: serve, place, verify
//	dsplacerd -smoke-cluster  # two-daemon shared-cache self-test
//
// Each job takes its seed, DRC gating level and placement settings from
// its request, and records its stage timings into a recorder of its own,
// served as the job document's stages_s and in /metrics; the daemon's
// only observability flags are the two profiles.
//
// Endpoints:
//
//	POST   /v1/jobs              submit  {"netlist": {...}, "flow": "dsplacer", ...}
//	GET    /v1/jobs/{id}         poll
//	GET    /v1/jobs/{id}/events  progress stream (SSE; ?poll=1 long-polls)
//	DELETE /v1/jobs/{id}         cancel
//	GET    /healthz              liveness (503 while draining)
//	GET    /metrics              Prometheus text
//
// With -cache-listen the daemon serves its result cache to peers over the
// cache/remote TCP protocol, and with -cache-peers it consults (and writes
// through to) other daemons' caches, so a cluster shares one logical
// placement cache (DESIGN.md §14).
//
// SIGTERM/SIGINT starts a graceful drain: new submissions get 503 while
// queued and running jobs finish (bounded by -drain-grace, after which
// their contexts are canceled).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dsplacer/internal/cache"
	"dsplacer/internal/cache/remote"
	"dsplacer/internal/cli"
	"dsplacer/internal/fpga"
	"dsplacer/internal/gen"
	"dsplacer/internal/jobs"
	"dsplacer/internal/server"
)

// parseTenantWeights parses "acme=2,batch=1" into a weight map.
func parseTenantWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	weights := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad tenant weight %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("bad tenant weight %q: weight must be a positive integer", part)
		}
		weights[name] = w
	}
	return weights, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	device := flag.String("device", "zcu104", "default target device for jobs that name none: "+strings.Join(fpga.Names(), ", "))
	workers := flag.Int("workers", 2, "concurrent placement jobs")
	queueDepth := flag.Int("queue-depth", 64, "max queued jobs across tenants before 429")
	tenantQuota := flag.Int("tenant-quota", 0, "max queued jobs per tenant (0 = queue-depth)")
	tenantWeights := flag.String("tenant-weights", "", `fair-share weights, e.g. "interactive=3,batch=1"`)
	cacheSize := flag.Int("cache-size", 64, "result cache capacity (entries)")
	cacheListen := flag.String("cache-listen", "", "serve the local result cache to peer daemons on this address")
	cachePeers := flag.String("cache-peers", "", "comma-separated peer cache addresses to share placements with")
	ttl := flag.Duration("ttl", 10*time.Minute, "terminal job retention before eviction")
	drainGrace := flag.Duration("drain-grace", time.Minute, "max wait for in-flight jobs on shutdown")
	smoke := flag.Bool("smoke", false, "run the in-process smoke test and exit")
	smokeCluster := flag.Bool("smoke-cluster", false, "run the two-daemon shared-cache smoke test and exit")
	prof := cli.RegisterProfiling(flag.CommandLine)
	flag.Parse()
	stop := prof.Start()
	defer stop()

	if *smokeCluster {
		if err := runClusterSmoke(); err != nil {
			stop()
			cli.Fatal(err)
		}
		fmt.Println("cluster smoke test passed")
		return
	}

	weights, err := parseTenantWeights(*tenantWeights)
	if err != nil {
		stop()
		cli.Fatal(err)
	}
	dev, err := fpga.Lookup(*device)
	if err != nil {
		stop()
		cli.Fatal(err)
	}

	// The local store is what -cache-listen serves; the server sees it
	// wrapped with the peers so lookups fall back to and fills write
	// through to the rest of the cluster.
	local := cache.NewLRU(*cacheSize)
	var store cache.Store = local
	if *cacheListen != "" {
		ln, err := remote.Listen(*cacheListen, local)
		if err != nil {
			stop()
			cli.Fatal(err)
		}
		defer ln.Close()
		log.Printf("dsplacerd cache served to peers on %s", ln.Addr())
	}
	if *cachePeers != "" {
		var peers []cache.Store
		for _, addr := range strings.Split(*cachePeers, ",") {
			if addr = strings.TrimSpace(addr); addr != "" {
				peers = append(peers, remote.Dial(addr, 2*time.Second))
			}
		}
		if len(peers) > 0 {
			store = &cache.Peered{Local: local, Peers: peers}
		}
	}

	srv := server.New(server.Config{
		Device: dev,
		Jobs: jobs.Config{
			Workers: *workers, QueueDepth: *queueDepth, ResultTTL: *ttl,
			TenantQuota: *tenantQuota, TenantWeights: weights,
		},
		Cache: store,
	})

	if *smoke {
		if err := runSmoke(srv); err != nil {
			stop()
			cli.Fatal(err)
		}
		fmt.Println("smoke test passed")
		return
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	errCh := make(chan error, 1)
	go func() {
		log.Printf("dsplacerd listening on %s (%d workers, queue %d)", *addr, *workers, *queueDepth)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		stop()
		cli.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("dsplacerd draining (grace %s)", *drainGrace)
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), *drainGrace)
	defer cancelDrain()
	// Order matters: drain the scheduler first so in-flight jobs finish
	// while the listener still answers polls, then close the listener.
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("dsplacerd drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("dsplacerd http shutdown: %v", err)
	}
	log.Printf("dsplacerd stopped")
}

// runSmoke exercises the whole service over real HTTP on a loopback port:
// it submits the quickstart netlist with final DRC gating, polls the job to
// completion, and checks /metrics reports the finished job. Exercised by
// `make serve-smoke` in CI.
func runSmoke(srv *server.Server) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		httpSrv.Shutdown(ctx)
	}()

	nl, err := gen.Generate(gen.Small(), fpga.NewZCU104())
	if err != nil {
		return fmt.Errorf("smoke: generate: %w", err)
	}
	nlJSON, err := json.Marshal(nl)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"netlist":  json.RawMessage(nlJSON),
		"validate": "final", // a done job therefore implies a DRC-clean result
		"seed":     1,
	})
	if err != nil {
		return err
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return fmt.Errorf("smoke: submit: %w", err)
	}
	var sub struct{ ID, State, Error string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("smoke: decode submit response: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		return fmt.Errorf("smoke: submit status %d (%s)", resp.StatusCode, sub.Error)
	}

	deadline := time.Now().Add(2 * time.Minute)
	var doc server.JobDoc
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return fmt.Errorf("smoke: poll: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return fmt.Errorf("smoke: poll status %d", resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("smoke: decode job: %w", err)
		}
		if doc.State == "done" || doc.State == "failed" || doc.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("smoke: job stuck in state %s", doc.State)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if doc.State != "done" {
		return fmt.Errorf("smoke: job %s: %s", doc.State, doc.Error)
	}
	if doc.Result == nil || doc.Result.HPWL <= 0 || doc.Result.DatapathDSPs == 0 {
		return fmt.Errorf("smoke: implausible result %+v", doc.Result)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	metricsText, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	for _, want := range []string{
		`dsplacer_jobs_completed_total{outcome="done"} 1`,
		"dsplacer_jobs_submitted_total 1",
	} {
		if !strings.Contains(string(metricsText), want) {
			return fmt.Errorf("smoke: /metrics missing %q", want)
		}
	}
	fmt.Printf("smoke: placed %s via %s: WNS %+.3f ns, HPWL %.0f, %d datapath DSPs (DRC-clean)\n",
		nl.Name, base, doc.Result.WNS, doc.Result.HPWL, doc.Result.DatapathDSPs)
	return nil
}
