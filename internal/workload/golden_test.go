package workload

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"testing"

	"telecast/internal/session"
)

// formatSchedule renders a schedule in the canonical golden format: one
// event per line, floats as exact hex so the comparison is bit-precise.
func formatSchedule(events []Event) []byte {
	var buf bytes.Buffer
	for _, ev := range events {
		fmt.Fprintf(&buf, "%d %d %s %s %s\n",
			ev.At.Nanoseconds(), int(ev.Kind), ev.Viewer,
			strconv.FormatFloat(ev.OutboundMbps, 'x', -1, 64),
			strconv.FormatFloat(ev.ViewAngle, 'x', -1, 64))
	}
	return buf.Bytes()
}

// TestGenerateMatchesGoldenSchedule pins the FlashChurn schedule
// byte-for-byte: the golden file was captured from the pre-Scenario
// generator, so this proves every refactor since preserved it exactly — same
// draws, same order, same floats.
func TestGenerateMatchesGoldenSchedule(t *testing.T) {
	events, err := flashChurnSchedule(DefaultConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range events {
		if ev.Region != (session.RegionHint{}) {
			t.Fatalf("flash-churn event %d carries a region hint", i)
		}
	}
	got := formatSchedule(events)
	want, err := os.ReadFile("testdata/legacy_schedule_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gotLines := bytes.Split(got, []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		n := len(gotLines)
		if len(wantLines) < n {
			n = len(wantLines)
		}
		for i := 0; i < n; i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("schedule diverges from golden at line %d:\n got: %s\nwant: %s",
					i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("schedule length differs: got %d lines, want %d", len(gotLines), len(wantLines))
	}
}
