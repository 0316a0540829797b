// Command telecast-sim regenerates the paper's evaluation (§VII): every
// figure of Fig. 13, Fig. 14, and Fig. 15, plus ablations of the design
// choices the paper motivates but does not measure separately (outbound
// allocation, degree push-down, view grouping, layer fade, the two-phase
// view change). Results print as aligned tables, one series per column,
// matching the rows the paper plots.
//
// Usage:
//
//	telecast-sim -exp all            # everything (several minutes)
//	telecast-sim -exp fig13a        # one figure
//	telecast-sim -exp fig15b -seed 7 -audience 500
//	telecast-sim -exp concurrent    # join throughput vs LSC shard count
//	telecast-sim -exp scenario -scenario diurnal          # catalog scenario,
//	                                                      # wall-clock executor
//	telecast-sim -exp scenario -scenario view-sweep -sim  # discrete-event replay
//	telecast-sim -exp scenario -scenario mass-departure -samples out.csv
//	telecast-sim -exp migration     # mobility scenario: cross-region handoffs
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"telecast/internal/experiments"
	"telecast/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig13a|fig13b|fig13c|fig14a|fig14b|fig14c|fig15a|fig15b|ablations|churn|concurrent|scenario|migration|faults|all")
	seed := flag.Int64("seed", 42, "random seed for traces and capacity draws")
	audience := flag.Int("audience", 1000, "viewer count for fixed-size experiments")
	scenario := flag.String("scenario", "flash-churn", "catalog scenario for -exp scenario: "+strings.Join(workload.CatalogNames(), "|"))
	samples := flag.String("samples", "", "write the scenario's per-second time series to this file (.json for JSON Lines, CSV otherwise)")
	simMode := flag.Bool("sim", false, "replay -exp scenario on the deterministic discrete-event runner instead of the wall-clock parallel executor")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the experiment run; use -sample_index=alloc_space to see allocation sites (the run's state is torn down by then, so inuse is near-zero)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	setup := experiments.DefaultSetup(*seed)
	setup.Audience = *audience
	if err := run(*exp, setup, *scenario, *samples, *simMode); err != nil {
		// The deferred profile writer must run; don't log.Fatal past it.
		pprof.StopCPUProfile()
		log.Fatal(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("memprofile: %v", err)
		}
		defer f.Close()
		// GC first so the inuse view holds only genuinely retained bytes;
		// the run's state is already torn down, so the useful view is
		// alloc_space (allocation sites across the whole run).
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("memprofile: %v", err)
		}
	}
}

func run(exp string, setup experiments.Setup, scenario, samplesPath string, simMode bool) error {
	runners := map[string]func(experiments.Setup) error{
		"fig13a":     runFig13a,
		"fig13b":     runFig13b,
		"fig13c":     runFig13c,
		"fig14a":     runFig14a,
		"fig14b":     runFig14b,
		"fig14c":     runFig14c,
		"fig15a":     runFig15a,
		"fig15b":     runFig15b,
		"ablations":  runAblations,
		"churn":      runChurn,
		"concurrent": runConcurrent,
		"scenario": func(s experiments.Setup) error {
			return runScenario(s, scenario, samplesPath, simMode)
		},
		"migration": runMigration,
		"faults":    runFaults,
	}
	if exp == "all" {
		order := []string{"fig13a", "fig13b", "fig13c", "fig14a", "fig14b", "fig14c", "fig15a", "fig15b", "ablations", "churn", "concurrent", "scenario", "migration", "faults"}
		for _, name := range order {
			if err := runners[name](setup); err != nil {
				return err
			}
		}
		return nil
	}
	runner, ok := runners[exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return runner(setup)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func printFig13(res experiments.Fig13Result, valueName string) {
	labels := make([]string, len(res.Labels))
	copy(labels, res.Labels)
	sort.Strings(labels)
	w := newTab()
	fmt.Fprintf(w, "viewers\t%s\n", strings.Join(labels, "\t"))
	for _, row := range res.Rows {
		cells := make([]string, len(labels))
		for i, l := range labels {
			cells[i] = fmt.Sprintf("%.3f", row.Values[l])
		}
		fmt.Fprintf(w, "%d\t%s\n", row.Viewers, strings.Join(cells, "\t"))
	}
	w.Flush()
	fmt.Printf("(values: %s)\n", valueName)
}

func runFig13a(setup experiments.Setup) error {
	header("Fig 13(a): CDN bandwidth (Mbps) required for rho=1")
	res, err := experiments.RunFig13a(setup)
	if err != nil {
		return err
	}
	printFig13(res, "peak CDN egress in Mbps, unbounded CDN")
	return nil
}

func runFig13b(setup experiments.Setup) error {
	header("Fig 13(b): fraction of streams served by CDN (cap 6000 Mbps)")
	res, err := experiments.RunFig13b(setup)
	if err != nil {
		return err
	}
	printFig13(res, "CDN-served fraction of live subscriptions")
	return nil
}

func runFig13c(setup experiments.Setup) error {
	header("Fig 13(c): acceptance ratio (CDN cap 6000 Mbps)")
	res, err := experiments.RunFig13c(setup)
	if err != nil {
		return err
	}
	printFig13(res, "acceptance ratio rho")
	return nil
}

func runFig14a(setup experiments.Setup) error {
	header("Fig 14(a): distribution of max delay layer per viewer")
	res, err := experiments.RunFig14a(setup)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "layer\tfraction\tcumulative")
	for l := range res.Fraction {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", l, res.Fraction[l], res.Cumulative[l])
	}
	w.Flush()
	fmt.Printf("layer-0 share: %.2f (paper ~0.30)   <=layer-4 share: %.2f (paper ~0.80)\n",
		res.Layer0Share, res.AtMost4Share)
	return nil
}

func runFig14b(setup experiments.Setup) error {
	header("Fig 14(b): CDF of accepted streams per viewer")
	res, err := experiments.RunFig14b(setup)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "streams\tcumulative fraction")
	for k, c := range res.CumulativeByCount {
		fmt.Fprintf(w, "%d\t%.3f\n", k, c)
	}
	w.Flush()
	fmt.Printf("all-streams share: %.2f (paper >0.70)   zero-streams share: %.2f (paper ~0.15)\n",
		res.AllStreamsShare, res.ZeroStreamsShare)
	return nil
}

func runFig14c(setup experiments.Setup) error {
	header("Fig 14(c): join and view-change delay CDFs")
	res, err := experiments.RunFig14c(setup)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "quantile\tjoin (ms)\tview change (ms)")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		fmt.Fprintf(w, "%.2f\t%.0f\t%.0f\n", q,
			res.JoinDelays.Quantile(q)*1000, res.ViewChangeDelays.Quantile(q)*1000)
	}
	w.Flush()
	fmt.Printf("join p95 %.0f ms (paper: up to ~1500 ms); view change p95 %.0f ms (paper: within ~500 ms)\n",
		res.Join95th*1000, res.ViewChange95th*1000)
	return nil
}

func printFig15(res experiments.Fig15Result, xName string) {
	w := newTab()
	fmt.Fprintf(w, "%s\ttelecast\trandom\tgain\n", xName)
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%g\t%.3f\t%.3f\t%+.3f\n", row.X, row.TeleCast, row.Random, row.TeleCast-row.Random)
	}
	w.Flush()
}

func runFig15a(setup experiments.Setup) error {
	header("Fig 15(a): TeleCast vs Random — acceptance vs outbound bandwidth")
	res, err := experiments.RunFig15a(setup)
	if err != nil {
		return err
	}
	printFig15(res, "obw Mbps")
	return nil
}

func runFig15b(setup experiments.Setup) error {
	header("Fig 15(b): TeleCast vs Random — acceptance vs audience size (obw 2-14)")
	res, err := experiments.RunFig15b(setup)
	if err != nil {
		return err
	}
	printFig15(res, "viewers")
	return nil
}

func runAblations(setup experiments.Setup) error {
	header("Ablation A1: outbound allocation policies (Fig 8 trade-off)")
	outRows, err := experiments.RunAblationOutbound(setup)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "obw\trr viewers\trr streams/viewer\tprio viewers\tprio streams/viewer\teq viewers\teq streams/viewer")
	for _, r := range outRows {
		fmt.Fprintf(w, "%g\t%d\t%.2f\t%d\t%.2f\t%d\t%.2f\n",
			r.OutboundMbps,
			r.RoundRobin.Admitted, r.RoundRobin.MeanStreams,
			r.PriorityOnly.Admitted, r.PriorityOnly.MeanStreams,
			r.EqualSplit.Admitted, r.EqualSplit.MeanStreams)
	}
	w.Flush()

	header("Ablation A2: degree push-down vs FIFO attachment")
	pdRows, err := experiments.RunAblationPushdown(setup)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "viewers\tpushdown rho\tfifo rho\tpushdown depth\tfifo depth")
	for _, r := range pdRows {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\t%.1f\t%.1f\n",
			r.Viewers, r.PushDown.Acceptance, r.FIFO.Acceptance, r.PushDownDepth, r.FIFODepth)
	}
	w.Flush()

	header("Ablation A3: layer push-down fade-out (R=tau*r) vs naive placement")
	fadeRows, err := experiments.RunAblationLayerFade(setup)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "viewers\tmean max layer (fade-out)\tmean max layer (naive)")
	for _, r := range fadeRows {
		fmt.Fprintf(w, "%d\t%.2f\t%.2f\n", r.Viewers, r.FadeMeanMaxLayer, r.NaiveMeanMaxLayer)
	}
	w.Flush()

	header("Ablation A4: view grouping under view diversity")
	grRows, err := experiments.RunAblationGrouping(setup)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "distinct views\tacceptance\tcdn fraction")
	for _, r := range grRows {
		fmt.Fprintf(w, "%d\t%.3f\t%.3f\n", r.DistinctViews, r.Acceptance, r.CDNFraction)
	}
	w.Flush()

	header("Ablation A5: two-phase view change vs plain re-join")
	vc, err := experiments.RunAblationViewChange(setup)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "mode\tmedian (ms)\tp95 (ms)")
	fmt.Fprintf(w, "two-phase (CDN fast path)\t%.0f\t%.0f\n", vc.TwoPhaseMedian*1000, vc.TwoPhaseP95*1000)
	fmt.Fprintf(w, "plain re-join\t%.0f\t%.0f\n", vc.PlainMedian*1000, vc.PlainP95*1000)
	w.Flush()
	return nil
}

func runConcurrent(setup experiments.Setup) error {
	header("Concurrent joins: batched admission throughput vs LSC shard count")
	rows, err := experiments.RunConcurrentJoin(setup, []int{1, 4, 16})
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "regions\tviewers\tadmitted\trejected\telapsed\tjoins/s\tjoin p99")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%v\t%.0f\t%v\n", r.Regions, r.Viewers, r.Admitted, r.Rejected,
			r.Elapsed.Round(time.Millisecond), r.JoinsPerSec, r.JoinP99.Round(time.Microsecond))
	}
	w.Flush()
	fmt.Println("(admitted/rejected from the telemetry outcome counters, cross-checked against the Controller.Subscribe event stream)")
	base := rows[0].JoinsPerSec
	if base > 0 {
		fmt.Printf("speedup vs 1 region: ")
		for i, r := range rows {
			if i > 0 {
				fmt.Printf("  ")
			}
			fmt.Printf("%d regions ×%.2f", r.Regions, r.JoinsPerSec/base)
		}
		fmt.Println()
	}
	return nil
}

func runScenario(setup experiments.Setup, name, samplesPath string, simMode bool) error {
	mode := "wall-clock parallel executor"
	if simMode {
		mode = "discrete-event replay"
	}
	header(fmt.Sprintf("Scenario %q (%s)", name, mode))
	// Validate the name before touching the samples file, so a typo'd
	// scenario never truncates a previous run's output.
	if _, err := workload.FromCatalog(name, workload.Knobs{}); err != nil {
		return err
	}
	opts := experiments.ScenarioOptions{Wallclock: !simMode}
	if samplesPath != "" {
		f, err := os.Create(samplesPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if strings.HasSuffix(samplesPath, ".json") {
			opts.Sinks = append(opts.Sinks, workload.NewJSONSink(f))
		} else {
			opts.Sinks = append(opts.Sinks, workload.NewCSVSink(f))
		}
	}
	res, err := experiments.RunScenario(setup, name, opts)
	if err != nil {
		return err
	}
	printRun(res)
	if samplesPath != "" {
		fmt.Printf("samples written to %s\n", samplesPath)
	}
	return nil
}

func runMigration(setup experiments.Setup) error {
	header("Migration: mobility scenario — cross-region shard-to-shard handoffs")
	res, err := experiments.RunScenario(setup, "mobility", experiments.ScenarioOptions{Wallclock: true})
	if err != nil {
		return err
	}
	printRun(res)
	fmt.Println("\nevery handoff ended rebound, restored, or departed (invariants + CDN accounting validated after the run)")
	return nil
}

func runFaults(setup experiments.Setup) error {
	header("Faults: shard kill/recover + CDN collapse under churn")
	rows, err := experiments.RunFaults(setup)
	if err != nil {
		return err
	}
	for _, r := range rows {
		printRun(r)
	}
	fmt.Println("\nevery run ended with all shards recovered, the online validator clean, and event-stream admissions matching the runner's count")
	return nil
}

// printRun prints a scenario run's final counters through the same
// formatter as `telecast-node replay`, so a local run and a wire replay read
// line-for-line identically.
func printRun(r experiments.ScenarioResult) {
	fmt.Printf("\n--- %s on %s executor (%d events; event stream: %d accepted, %d rejected, %d evacuations, %d dropped) ---\n",
		r.Scenario, r.Executor, r.Events, r.Stream.Accepted, r.Stream.Rejected, r.Stream.Evacuations, r.Stream.EventsDropped)
	workload.WriteSummary(os.Stdout, r.Result)
}

func runChurn(setup experiments.Setup) error {
	header("Churn: flash crowd + Poisson churn + view changes (60 s)")
	res, err := experiments.RunChurn(setup)
	if err != nil {
		return err
	}
	w := newTab()
	fmt.Fprintln(w, "t (s)\tviewers\tlive streams\tacceptance\tcdn Mbps\tcdn fraction")
	for i, s := range res.Samples {
		if i%5 != 4 {
			continue // print every 5th sample
		}
		fmt.Fprintf(w, "%.0f\t%d\t%d\t%.3f\t%.0f\t%.3f\n",
			s.At.Seconds(), s.Viewers, s.LiveStreams, s.Acceptance, s.CDNMbps, s.CDNFraction)
	}
	w.Flush()
	fmt.Printf("events: %d joins (%d rejected), %d leaves, %d view changes; peak audience %d\n",
		res.Joins, res.Rejected, res.Leaves, res.ViewChanges, res.PeakViewers)
	fmt.Printf("acceptance: final %.3f, minimum over run %.3f (invariants validated every second)\n",
		res.FinalAcceptance, res.MinAcceptance)
	return nil
}
