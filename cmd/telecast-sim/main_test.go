package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"telecast/internal/experiments"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and returns
// what fn printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	var buf bytes.Buffer
	done := make(chan struct{})
	go func() {
		io.Copy(&buf, r)
		close(done)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	<-done
	r.Close()
	return buf.String(), runErr
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run("fig99", experiments.DefaultSetup(1), "flash-churn", "", true)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v, want unknown experiment", err)
	}
}

// TestUnknownScenarioLeavesSamplesFile checks that a typo'd scenario name
// fails before the samples file is created or truncated.
func TestUnknownScenarioLeavesSamplesFile(t *testing.T) {
	dir := t.TempDir()
	kept := filepath.Join(dir, "previous.csv")
	const previous = "t,viewers\n1,10\n"
	if err := os.WriteFile(kept, []byte(previous), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(dir, "fresh.csv")
	for _, path := range []string{kept, fresh} {
		_, err := captureStdout(t, func() error {
			return run("scenario", experiments.DefaultSetup(1), "no-such-scenario", path, true)
		})
		if err == nil {
			t.Fatalf("%s: unknown scenario accepted", path)
		}
	}
	if got, err := os.ReadFile(kept); err != nil || string(got) != previous {
		t.Errorf("existing samples file = %q, %v; want it untouched", got, err)
	}
	if _, err := os.Stat(fresh); !os.IsNotExist(err) {
		t.Errorf("samples file created for an unknown scenario (stat err = %v)", err)
	}
}

// TestSimScenarioPrintsSummary runs a small catalog scenario on the
// discrete-event runner and checks that its counters print through
// workload.WriteSummary.
func TestSimScenarioPrintsSummary(t *testing.T) {
	setup := experiments.DefaultSetup(3)
	setup.Audience = 40
	samples := filepath.Join(t.TempDir(), "samples.csv")
	out, err := captureStdout(t, func() error {
		return run("scenario", setup, "flash-churn", samples, true)
	})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"--- flash-churn on sim executor (",
		"scenario            flash-churn\n",
		"joins               ",
		"final acceptance    ",
		"samples written to " + samples,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if info, err := os.Stat(samples); err != nil || info.Size() == 0 {
		t.Errorf("samples file not written: %v", err)
	}
}
