// Command benchmark is the repository's end-to-end benchmark: it generates a
// seeded op schedule, drives it into the control plane from closed-loop
// driver goroutines — over loopback into a `telecast-node serve` child, or
// in process — checks the outputs, and prints every metric by name.
// README.md in this directory says what each workload and metric is for.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), "|"))
		seed         = flag.Int64("seed", 1, "the run's only source of randomness: op schedule and latency matrix")
		seconds      = flag.Int("seconds", 20, "measured time per run, in seconds")
		trace        = flag.Int("trace", 0, "1 runs the traced ladder and prints the per-layer metrics instead of the end-to-end ones")
		repeat       = flag.Int("repeat", 1, "run each workload this many times, on seeds seed, seed+1, ..., and print each metric's spread against its bound")
		smoke        = flag.Bool("smoke", false, "shrink every workload to about a second; the numbers mean nothing")
		nodeBin      = flag.String("node-bin", "", "telecast-node binary for the wire workloads (default: build it into -out)")
		outDir       = flag.String("out", "out", "directory for trace files and the built child")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var todo []spec
	for _, s := range specs(*smoke) {
		if *workloadName == "all" || *workloadName == s.name {
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; have %s\n", *workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	for _, s := range todo {
		if s.wire && *nodeBin == "" {
			bin, err := buildNode(*outDir + "/bin")
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				return 2
			}
			*nodeBin = bin
		}
	}
	measured := time.Duration(*seconds) * time.Second
	if *smoke {
		measured = time.Second
	}

	ok := true
	for _, s := range todo {
		summary := newRepeatSummary(s.name)
		for i := 0; i < *repeat; i++ {
			var rep report
			if *trace != 0 {
				rep = runTraced(ctx, s, *seed+int64(i), measured, *nodeBin, *outDir)
			} else {
				rep = runE2E(ctx, s, *seed+int64(i), measured, *nodeBin)
			}
			rep.print(os.Stdout)
			summary.add(rep)
			ok = ok && rep.correct()
		}
		if *repeat > 1 {
			summary.print(os.Stdout)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, s := range specs(false) {
		names = append(names, s.name)
	}
	return names
}
