// Command telecast-node runs a 4D TeleCast node in one of three modes.
//
// The default mode is the zero-to-streaming demo: a live overlay on real TCP
// sockets where producers, one CDN edge, and a fleet of viewer gateways
// exchange S-RTP frames while the control plane maintains the per-view
// streaming trees.
//
// The serve mode hosts the control plane as an HTTP/JSON service — the
// networked GSC/LSC deployment shape — and the replay mode drives any
// catalog workload scenario against such a server entirely over the wire,
// reporting achieved joins/s and cross-checking its client-side counters
// against the server's /metricz totals.
//
// Usage:
//
//	telecast-node -viewers 8 -duration 5s
//	telecast-node -viewers 12 -seeds 3 -churn
//	telecast-node serve -addr 127.0.0.1:7465
//	telecast-node replay -addr 127.0.0.1:7465 -scenario regional-hotspot -verify
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"telecast"
	"telecast/internal/cdn"
	"telecast/internal/httpapi"
	"telecast/internal/httpapi/client"
	"telecast/internal/model"
	"telecast/internal/session"
	"telecast/internal/telemetry"
	"telecast/internal/trace"
	"telecast/internal/workload"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		case "replay":
			if err := runReplay(os.Args[2:]); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	viewers := flag.Int("viewers", 6, "number of viewer gateways to launch")
	seeds := flag.Int("seeds", 2, "viewers that donate outbound bandwidth")
	duration := flag.Duration("duration", 4*time.Second, "streaming time before the report")
	churn := flag.Bool("churn", false, "exercise a view change and a departure mid-run")
	dump := flag.Bool("dump", false, "print the dissemination trees before the report")
	flag.Parse()

	if err := runDemo(*viewers, *seeds, *duration, *churn, *dump); err != nil {
		log.Fatal(err)
	}
}

// readHeaderTimeout bounds how long serve waits for a request's headers, so
// a client that opens a connection and stalls cannot hold it open forever.
const readHeaderTimeout = 10 * time.Second

// runServe hosts the control plane behind the httpapi surface until SIGINT/
// SIGTERM, then drains gracefully: health flips to draining, event feeds
// terminate, in-flight batches finish, and the controller shuts down.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7465", "listen address")
	seed := fs.Int64("seed", 42, "latency-matrix seed")
	maxViewers := fs.Int("max-viewers", 2000, "latency-matrix capacity (max concurrent viewers); the dense matrix takes 2·n² bytes, ≈72 MB at 6000, mapped outside the Go heap so the GC does not pace itself to it (/metricz heap.off_heap_bytes)")
	cdnMbps := fs.Float64("cdn-mbps", 6000, "CDN egress capacity in Mbps (0 = unbounded)")
	sites := fs.Int("sites", 2, "producer sites")
	streams := fs.Int("streams", 8, "camera streams per site")
	cutoff := fs.Float64("cutoff", 0.5, "differentiation-function cutoff")
	maxParallel := fs.Int("max-parallel", 0, "view-change worker pool bound (0 = default)")
	telemetryOn := fs.Bool("telemetry", true, "arm the telemetry layer: /metrics histograms, outcome counters, slow-op flight recorder")
	slowOp := fs.Duration("slow-op", 0, "flight-recorder capture threshold (0 = default; negative records every traced op)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof profiling handlers under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}

	siteList := make([]model.Site, 0, *sites)
	for i := 0; i < *sites; i++ {
		id := model.SiteID(string(rune('A' + i)))
		siteList = append(siteList, model.NewRingSite(id, *streams, 2.0, 10))
	}
	producers, err := model.NewSession(siteList...)
	if err != nil {
		return err
	}
	lat, err := trace.GenerateLatencyMatrix(trace.DefaultLatencyConfig(*maxViewers+16, *seed))
	if err != nil {
		return err
	}
	cdnCfg := cdn.DefaultConfig()
	cdnCfg.OutboundCapacityMbps = *cdnMbps
	ctrl, err := session.NewController(producers, lat,
		session.WithCutoffDF(*cutoff),
		session.WithCDN(cdnCfg),
		session.WithTelemetry(*telemetryOn),
		session.WithSlowOpThreshold(*slowOp))
	if err != nil {
		return err
	}

	api := httpapi.NewServer(ctrl, producers, *maxParallel)
	handler := api.Handler()
	if *pprofOn {
		// The profiling surface rides the same listener as the control
		// plane; anything that is not /debug/pprof/ falls through to the
		// API mux unchanged.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	hs := &http.Server{Addr: *addr, Handler: handler, ReadHeaderTimeout: readHeaderTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("telecast-node serve: control plane on http://%s (%d regions, CDN %g Mbps, telemetry %v)",
			*addr, trace.DefaultRegions, *cdnMbps, *telemetryOn)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("telecast-node serve: draining")
	api.Drain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	ctrl.Close()
	log.Printf("telecast-node serve: stopped")
	return nil
}

// runReplay drives a catalog scenario against a serve instance over HTTP:
// the wall-clock executor with its binning, disjoint-bin pipelining, and
// MaxInFlight windows intact, just with the wire as the control plane.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7465", "server address (host:port or URL)")
	scenario := fs.String("scenario", "flash-churn", "catalog scenario: "+strings.Join(workload.CatalogNames(), "|"))
	audience := fs.Int("audience", 1000, "scenario audience size")
	duration := fs.Duration("duration", 30*time.Second, "scenario horizon (simulated time)")
	seed := fs.Int64("seed", 42, "scenario seed")
	inbound := fs.Float64("inbound", 12, "per-viewer inbound capacity in Mbps")
	window := fs.Duration("window", 250*time.Millisecond, "executor batch window (simulated time)")
	maxInFlight := fs.Int("max-inflight", 512, "executor in-flight request bound")
	samples := fs.String("samples", "", "write the per-second time series to this file (.json for JSON Lines, CSV otherwise)")
	verify := fs.Bool("verify", false, "fail unless client-side counters match the server's /metricz totals")
	obsVerify := fs.Bool("obs-verify", false, "fail unless scraped /metrics telemetry series reconcile with the /metricz totals (requires serve -telemetry)")
	waitReady := fs.Duration("wait-ready", 10*time.Second, "how long to wait for the server's /healthz")
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	cl := client.New(base)
	ctx := context.Background()
	if err := awaitReady(ctx, cl, *waitReady); err != nil {
		return err
	}

	sc, err := workload.FromCatalog(*scenario, workload.Knobs{
		Seed:       *seed,
		Audience:   *audience,
		Duration:   *duration,
		ViewAngles: []float64{0, math.Pi / 2, math.Pi},
	})
	if err != nil {
		return err
	}

	opts := []workload.Option{
		workload.WithSeed(*seed),
		workload.WithInbound(*inbound),
		workload.WithBatchWindow(*window),
		workload.WithMaxInFlight(*maxInFlight),
	}
	if *samples != "" {
		f, err := os.Create(*samples)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(*samples, ".json") {
			opts = append(opts, workload.WithSink(workload.NewJSONSink(f)))
		} else {
			opts = append(opts, workload.WithSink(workload.NewCSVSink(f)))
		}
	}

	// Totals are cumulative for the server's lifetime; delta against a
	// pre-run snapshot so replaying against a warm server still verifies.
	before, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metricz before run: %w", err)
	}
	var textBefore string
	if *obsVerify {
		if textBefore, err = cl.MetricsText(ctx); err != nil {
			return fmt.Errorf("metrics scrape before run: %w", err)
		}
	}
	res, err := workload.RunRemote(ctx, cl, sc, opts...)
	if err != nil {
		return fmt.Errorf("replay %s: %w", *scenario, err)
	}
	after, err := cl.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("metricz after run: %w", err)
	}

	// The server reduces its latency histograms since process start; against
	// a fresh serve (the smoke's shape) the table is exactly this run.
	// Run-windowed quantiles would need raw buckets, which the JSON surface
	// deliberately does not carry — the Prometheus scrape does.
	res.Latency = after.Latency

	fmt.Printf("replay %q over %s\n", *scenario, base)
	workload.WriteSummary(os.Stdout, res)
	if *samples != "" {
		fmt.Printf("samples written to %s\n", *samples)
	}

	if *verify {
		if err := verifyTotals(res, delta(before.Totals, after.Totals)); err != nil {
			return err
		}
		fmt.Println("verify: client counters match server /metricz totals")
	}
	if *obsVerify {
		textAfter, err := cl.MetricsText(ctx)
		if err != nil {
			return fmt.Errorf("metrics scrape after run: %w", err)
		}
		if err := verifyObs(textBefore, textAfter, delta(before.Totals, after.Totals)); err != nil {
			return err
		}
		so, err := cl.SlowOps(ctx)
		if err != nil {
			return fmt.Errorf("slowops: %w", err)
		}
		fmt.Printf("obs-verify: /metrics deltas reconcile with /metricz totals; flight recorder holds %d of %d slow ops (threshold %v)\n",
			len(so.SlowOps), so.Seen, time.Duration(so.ThresholdNs))
	}
	return nil
}

// verifyObs reconciles the Prometheus scrape against the JSON totals: the
// telemetry collector counts operations inside the controller while the
// httpapi layer tallies wire outcomes, so — with this replay as the only
// traffic — every cell delta must match, and each op's histogram count must
// equal its outcome total (one Finish records exactly one of each).
func verifyObs(textBefore, textAfter string, tot httpapi.Totals) error {
	sb, err := telemetry.ParseText(textBefore)
	if err != nil {
		return fmt.Errorf("obs-verify: parse before scrape: %w", err)
	}
	sa, err := telemetry.ParseText(textAfter)
	if err != nil {
		return fmt.Errorf("obs-verify: parse after scrape: %w", err)
	}
	if sa["telecast_telemetry_enabled"] != 1 {
		return fmt.Errorf("obs-verify: server telemetry is disabled; start serve with -telemetry")
	}
	cell := func(op, outcome string) float64 {
		k := fmt.Sprintf("telecast_ops_total{op=%q,outcome=%q}", op, outcome)
		return sa[k] - sb[k]
	}
	checks := []struct {
		name    string
		scraped float64
		server  uint64
	}{
		{"join/ok vs joins accepted", cell("join", "ok"), tot.JoinsAccepted},
		{"join/rejected vs joins rejected", cell("join", "rejected"), tot.JoinsRejected},
		{"leave/ok vs leaves", cell("leave", "ok"), tot.Leaves},
		{"view_change/ok vs view changes admitted", cell("view_change", "ok"), tot.ViewChanges - tot.ViewChangesRejected},
		{"view_change/rejected vs view changes rejected", cell("view_change", "rejected"), tot.ViewChangesRejected},
		{"migrate/ok vs migrations landed", cell("migrate", "ok"), tot.MigrationsLanded},
		{"migrate/rejected vs migrations bounced", cell("migrate", "rejected"), tot.MigrationsBounced},
	}
	var bad []string
	for _, c := range checks {
		if c.scraped != float64(c.server) {
			bad = append(bad, fmt.Sprintf("%s: scraped %g vs server %d", c.name, c.scraped, c.server))
		}
	}
	sum := func(s map[string]float64, prefix string) float64 { return telemetry.SumSeries(s, prefix) }
	for _, op := range []string{"join", "leave", "view_change", "migrate"} {
		histPfx := fmt.Sprintf("telecast_op_duration_seconds_count{op=%q", op)
		outPfx := fmt.Sprintf("telecast_ops_total{op=%q", op)
		hist := sum(sa, histPfx) - sum(sb, histPfx)
		out := sum(sa, outPfx) - sum(sb, outPfx)
		if hist != out {
			bad = append(bad, fmt.Sprintf("%s: histogram count %g vs outcome total %g", op, hist, out))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("obs-verify failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// awaitReady polls /healthz until the server answers ok.
func awaitReady(ctx context.Context, cl *client.Client, patience time.Duration) error {
	deadline := time.Now().Add(patience)
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			return nil
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("status %q", h.Status)
			}
			return fmt.Errorf("server not ready after %v: %w", patience, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// delta subtracts the pre-run totals snapshot.
func delta(before, after httpapi.Totals) httpapi.Totals {
	return httpapi.Totals{
		JoinsAccepted:       after.JoinsAccepted - before.JoinsAccepted,
		JoinsRejected:       after.JoinsRejected - before.JoinsRejected,
		Leaves:              after.Leaves - before.Leaves,
		ViewChanges:         after.ViewChanges - before.ViewChanges,
		ViewChangesRejected: after.ViewChangesRejected - before.ViewChangesRejected,
		MigrationsLanded:    after.MigrationsLanded - before.MigrationsLanded,
		MigrationsBounced:   after.MigrationsBounced - before.MigrationsBounced,
		Requests:            after.Requests - before.Requests,
		Batches:             after.Batches - before.Batches,
	}
}

// verifyTotals cross-checks the replay's client-side tally against the
// server's outcome totals — both ends counted independently from the same
// wire traffic, so any lost request, duplicated dispatch, or decode skew
// breaks an equality.
func verifyTotals(res workload.Result, tot httpapi.Totals) error {
	checks := []struct {
		name           string
		client, server uint64
	}{
		{"joins accepted", uint64(res.Joins), tot.JoinsAccepted},
		{"joins rejected", uint64(res.Rejected), tot.JoinsRejected},
		{"leaves", uint64(res.Leaves), tot.Leaves},
		{"view changes", uint64(res.ViewChanges), tot.ViewChanges},
		{"view changes rejected", uint64(res.ViewChangesRejected), tot.ViewChangesRejected},
		{"migrations landed", uint64(res.Migrations), tot.MigrationsLanded},
		{"migrations bounced", uint64(res.MigrationsBounced), tot.MigrationsBounced},
	}
	var bad []string
	for _, c := range checks {
		if c.client != c.server {
			bad = append(bad, fmt.Sprintf("%s: client %d vs server %d", c.name, c.client, c.server))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("verify failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

func runDemo(viewers, seeds int, duration time.Duration, churn, dump bool) error {
	if viewers < 1 {
		return fmt.Errorf("need at least one viewer, got %d", viewers)
	}
	if seeds > viewers {
		seeds = viewers
	}
	producers, err := telecast.NewSession(
		telecast.NewRingSite("A", 8, 0.25, 10),
		telecast.NewRingSite("B", 8, 0.25, 10),
	)
	if err != nil {
		return err
	}
	cfg := telecast.DefaultClusterConfig(producers)
	if viewers+8 > cfg.MaxViewers {
		cfg.MaxViewers = viewers + 8
	}
	cluster, err := telecast.StartCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()

	view := telecast.NewUniformView(producers, 0)
	ids := make([]telecast.ViewerID, 0, viewers)
	for i := 0; i < viewers; i++ {
		id := telecast.ViewerID(fmt.Sprintf("viewer-%02d", i))
		outbound := 0.0
		if i < seeds {
			outbound = 25
		}
		if _, err := cluster.AddViewer(id, 100, outbound, view); err != nil {
			return fmt.Errorf("add %s: %w", id, err)
		}
		ids = append(ids, id)
		log.Printf("%s joined (outbound %.0f Mbps)", id, outbound)
	}

	log.Printf("streaming for %v …", duration)
	if churn && viewers >= 2 {
		time.Sleep(duration / 2)
		last := ids[len(ids)-1]
		if err := cluster.ChangeView(last, telecast.NewUniformView(producers, math.Pi)); err != nil {
			log.Printf("view change %s: %v", last, err)
		} else {
			log.Printf("%s changed view (180°)", last)
		}
		if err := cluster.RemoveViewer(ids[0]); err != nil {
			log.Printf("remove %s: %v", ids[0], err)
		} else {
			log.Printf("%s departed (victim recovery engaged)", ids[0])
			ids = ids[1:]
		}
		time.Sleep(duration - duration/2)
	} else {
		time.Sleep(duration)
	}

	if dump {
		fmt.Println("\ndissemination trees:")
		fmt.Print(cluster.Controller().DumpOverlay())
	}

	fmt.Println("\nper-viewer data-plane report:")
	for _, id := range ids {
		node, ok := cluster.Viewer(id)
		if !ok {
			continue
		}
		rep := node.Report()
		total := 0
		streams := make([]string, 0, len(rep.ReceivedPerStream))
		for sid, n := range rep.ReceivedPerStream {
			total += n
			streams = append(streams, fmt.Sprintf("%s:%d", sid, n))
		}
		sort.Strings(streams)
		fmt.Printf("  %-10s frames=%-6d rendered=%-5d misses=%-5d worst-skew=%-8v\n",
			id, total, rep.RenderedSets, rep.RenderMisses, rep.WorstSkew.Round(time.Millisecond))
	}

	st := cluster.Controller().Stats()
	fmt.Printf("\noverlay: %d live subscriptions (%d via CDN, %d peer-to-peer), acceptance %.3f\n",
		st.Overlay.LiveStreams, st.Overlay.ViaCDN, st.Overlay.ViaP2P, st.Overlay.AcceptanceRatio())
	return cluster.Controller().Validate()
}
