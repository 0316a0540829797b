package experiments

import "testing"

func TestRunConcurrentJoinScalesRegions(t *testing.T) {
	setup := DefaultSetup(7)
	setup.Audience = 120
	setup.MaxViewers = 200
	rows, err := RunConcurrentJoin(setup, []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Viewers != 120 {
			t.Errorf("regions %d joined %d viewers, want 120", r.Regions, r.Viewers)
		}
		if r.Admitted == 0 || r.JoinsPerSec <= 0 {
			t.Errorf("regions %d: admitted=%d rate=%f", r.Regions, r.Admitted, r.JoinsPerSec)
		}
	}
}
