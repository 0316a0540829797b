package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "outer", start: 0, end: 100},              // 1
		{name: "inner", parent: 1, start: 10, end: 40},   // 2: covers 30
		{name: "inner", parent: 1, start: 30, end: 60},   // 3: overlaps 2, adds 20
		{name: "inner", parent: 1, start: 90, end: 120},  // 4: sticks out, adds 10
		{name: "leaf", parent: 2, start: 15, end: 20},    // 5: grandchild of 1
		{name: "outer", start: 200, end: 250},            // 6: no children
		{name: "inner", parent: 6, start: 190, end: 195}, // 7: wholly outside its parent
	}
	self := selfTimes(spans)
	// outer: (100 - 60) + 50. inner: 25 (30 minus the leaf) + 30 + 30 + 5.
	want := map[string]time.Duration{"outer": 90, "inner": 90, "leaf": 5}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, self[name], w)
		}
	}
}

func TestRunnerSpansKeepParentsAcrossDrivers(t *testing.T) {
	r := newRunner(nil, 2, 1, false)
	r.logs[0].spans = []span{{name: "a", start: 0, end: 9}, {name: "b", parent: 1, start: 1, end: 2}}
	r.logs[1].spans = []span{{name: "a", start: 0, end: 7}, {name: "b", parent: 1, start: 3, end: 5}}
	all := r.spans()
	if len(all) != 4 || all[1].parent != 1 || all[3].parent != 3 {
		t.Fatalf("merged spans lost their parents: %+v", all)
	}
	if self := selfTimes(all); self["a"] != 8+5 {
		t.Errorf("self time of a = %d, want 13", self["a"])
	}
}

func TestSpanFileIsJSON(t *testing.T) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	n := writeSpans(w, "session", []span{{name: "Controller.Admit", op: 7, start: 5, end: 9}, {name: "x", parent: 1, start: 6, end: 7}})
	w.Flush()
	var got struct {
		Rung  string `json:"rung"`
		Spans []struct {
			Name           string
			Op, ID, Parent uint32
			StartNs, EndNs int64 `json:"-"`
			Start          int64 `json:"start_ns"`
			End            int64 `json:"end_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("span output is not JSON: %v\n%s", err, buf.String())
	}
	if n != 2 || got.Rung != "session" || len(got.Spans) != 2 || got.Spans[0].Op != 7 || got.Spans[1].Parent != 1 || got.Spans[0].End != 9 {
		t.Errorf("span output lost fields: %+v", got)
	}
}
