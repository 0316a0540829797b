package main

// spec is one workload: which system it starts, how it is driven, and why
// it exists. The whys are repeated in BENCHMARK.json and README.md.
type spec struct {
	name string
	why  string
	// wire workloads drive a telecast-node child over loopback; the others
	// call session.Controller in this process.
	wire bool
	// batch is the number of ops per request: 1 uses the single-op
	// endpoints, more uses /v1/batch.
	batch   int
	drivers int
	// viewers is the audience: a cycle's peak, or churn's warm population.
	viewers int
	churn   bool
	// oneView puts the whole audience on one view, so one view group's
	// trees hold everyone.
	oneView bool
	sys     system
}

// churnOpsPerSecond sizes a churn schedule per driver and second of
// measured time: several times what a single-op wire driver gets through,
// so the deadline, not the schedule, ends the run.
const churnOpsPerSecond = 12000

func (s spec) schedule(seed int64, seconds int) schedule {
	if s.churn {
		return churnSchedule(s.name, seed, s.drivers, s.viewers, churnOpsPerSecond*seconds)
	}
	return cycleSchedule(s.name, seed, s.drivers, s.viewers)
}

// specs lists the workloads. smoke shrinks every audience so a whole run
// takes about a second; smoke results are not comparable with anything.
func specs(smoke bool) []spec {
	all := []spec{
		{
			name: "cycle.wire-single",
			why:  "one HTTP request per op over loopback: per-request HTTP+JSON dominates, so an httpapi change shows here; ordered drain makes no victims, so it repeats",
			wire: true, batch: 1, drivers: 2, viewers: 5000,
			sys: system{maxViewers: 6000},
		},
		{
			name: "cycle.wire-batch",
			why:  "the same schedule as /v1/batch POSTs of 64: decode is amortised 64x and session's batch fan-out does the work, so a per-request wire change must not move it",
			wire: true, batch: 64, drivers: 2, viewers: 5000,
			sys: system{maxViewers: 6000},
		},
		{
			name: "churn.wire-single",
			why:  "45/45/10 join/leave/view-change on a 2000-viewer audience at the paper's 6000 Mbps CDN bound: victim recovery, re-subscription and CDN refusals, which no cycle touches",
			wire: true, batch: 1, drivers: 2, viewers: 2000, churn: true,
			sys: system{maxViewers: 4000, cdnMbps: 6000},
		},
		{
			name:  "deep.local-single",
			why:   "in-process Controller, one region, one view, 30000 viewers: no httpapi and no fan-out, findPosition on deep trees is nearly all the time; O(n) substrate",
			batch: 1, drivers: 1, viewers: 30000, oneView: true,
			sys: system{maxViewers: 30000, hashed: true},
		},
	}
	if smoke {
		for i := range all {
			all[i].viewers /= 20
			all[i].sys.maxViewers /= 20
		}
	}
	return all
}
