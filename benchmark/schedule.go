package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"telecast/internal/model"
	"telecast/internal/workload"
)

// The schedule is the benchmark's whole input: it is generated here from
// -seed and nothing else, and the program under test receives only the
// requests it lists.
//
// One convention covers every workload:
//
//   - A viewer is a number i. Its wire ID is "v%07d" of i, its inbound
//     capacity is 12 Mbps, its outbound capacity is i mod 13 Mbps, and its
//     first view angle is viewAngles[i mod 3]. deep.local-single puts every
//     viewer on viewAngles[0] so one view group owns the whole audience.
//   - Viewer i belongs to driver i mod drivers, for its whole life. A driver
//     sends its ops in schedule order and waits for each reply, so the ops
//     of one viewer reach the program in schedule order however the drivers
//     interleave.
//   - No join carries a region hint: the controller places viewers itself
//     (deep.local-single has one region).
//   - The seed also seeds the latency matrix of the system under test
//     (serve -seed, or the in-process generator), so a different seed is a
//     different delay landscape as well as a different op order.

var viewAngles = [3]float64{0, math.Pi / 2, math.Pi}

const inboundMbps = 12

type opKind uint8

const (
	opJoin opKind = iota + 1
	opLeave
	opView
)

func (k opKind) String() string {
	switch k {
	case opJoin:
		return "join"
	case opLeave:
		return "leave"
	case opView:
		return "view"
	}
	return "unknown"
}

// op is one scheduled request. angle indexes viewAngles and is meaningful
// for joins and view changes.
type op struct {
	kind   opKind
	angle  uint8
	viewer uint32
}

// phase is a run of ops per driver. Drivers start a phase together and the
// phase ends when the last driver has finished its list.
type phase struct {
	name string
	ops  [][]op // indexed by driver
}

func (p phase) len() int {
	n := 0
	for _, d := range p.ops {
		n += len(d)
	}
	return n
}

// schedule is what one run executes: warm runs once and is not timed; cycle
// is the measured part. A looping schedule repeats cycle whole until the
// measured time is used up; a non-looping one (churn) runs cycle once and is
// cut at the deadline.
type schedule struct {
	workload string
	seed     int64
	drivers  int
	loop     bool
	warm     []phase
	cycle    []phase
}

func viewerID(i uint32) model.ViewerID { return model.ViewerID(fmt.Sprintf("v%07d", i)) }

// request renders an op in the control plane's vocabulary.
func (o op) request(oneView bool) workload.Request {
	rq := workload.Request{ID: viewerID(o.viewer)}
	switch o.kind {
	case opJoin:
		rq.Kind = workload.EventJoin
		rq.InboundMbps = inboundMbps
		rq.OutboundMbps = float64(o.viewer % 13)
		rq.ViewAngle = viewAngles[o.angle]
	case opLeave:
		rq.Kind = workload.EventLeave
	case opView:
		rq.Kind = workload.EventViewChange
		rq.ViewAngle = viewAngles[o.angle]
	}
	if oneView {
		rq.ViewAngle = viewAngles[0]
	}
	return rq
}

// cycleSchedule is "show starts, show ends": viewers 0..n-1 join in a seeded
// arrival order, then leave in the order they joined. The first cycle run is
// the untimed warm-up.
func cycleSchedule(name string, seed int64, drivers, n int) schedule {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(n)
	ramp := phase{name: "ramp", ops: make([][]op, drivers)}
	drain := phase{name: "drain", ops: make([][]op, drivers)}
	for _, v := range order {
		d := v % drivers
		i := uint32(v)
		ramp.ops[d] = append(ramp.ops[d], op{kind: opJoin, viewer: i, angle: uint8(i % 3)})
		drain.ops[d] = append(drain.ops[d], op{kind: opLeave, viewer: i})
	}
	return schedule{workload: name, seed: seed, drivers: drivers, loop: true,
		cycle: []phase{ramp, drain}}
}

// Churn keeps each driver's live audience inside [churnFloor, churnCeil]
// times its warm share. Without a band the audience is a random walk: it
// could drain, or run the latency matrix out of nodes, and — what made the
// band this narrow — an op's cost follows the audience size, so two seeds
// would measure two different systems.
const (
	churnFloor = 0.9
	churnCeil  = 1.1
)

// churnSchedule loads a warm audience of n viewers, then draws opsPerDriver
// ops per driver: 45 % join of a fresh viewer, 45 % leave of a uniformly
// random live viewer of that driver, 10 % view change of one to a different
// angle.
func churnSchedule(name string, seed int64, drivers, n, opsPerDriver int) schedule {
	warm := phase{name: "warm", ops: make([][]op, drivers)}
	churn := phase{name: "churn", ops: make([][]op, drivers)}
	for d := 0; d < drivers; d++ {
		rng := rand.New(rand.NewSource(seed*int64(drivers) + int64(d)))
		type live struct {
			viewer uint32
			angle  uint8
		}
		var audience []live
		next := uint32(d) // this driver's IDs are d, d+drivers, d+2*drivers, ...
		join := func() op {
			o := op{kind: opJoin, viewer: next, angle: uint8(next % 3)}
			audience = append(audience, live{next, o.angle})
			next += uint32(drivers)
			return o
		}
		share := n / drivers
		for len(audience) < share {
			warm.ops[d] = append(warm.ops[d], join())
		}
		floor, ceil := int(churnFloor*float64(share)), int(churnCeil*float64(share))
		ops := make([]op, 0, opsPerDriver)
		for len(ops) < opsPerDriver {
			r := rng.Intn(100)
			switch {
			case len(audience) <= floor:
				r = 0
			case len(audience) >= ceil:
				r = 45
			}
			switch {
			case r < 45:
				ops = append(ops, join())
			case r < 90:
				k := rng.Intn(len(audience))
				ops = append(ops, op{kind: opLeave, viewer: audience[k].viewer})
				audience[k] = audience[len(audience)-1]
				audience = audience[:len(audience)-1]
			default:
				k := rng.Intn(len(audience))
				a := (audience[k].angle + 1 + uint8(rng.Intn(2))) % 3
				audience[k].angle = a
				ops = append(ops, op{kind: opView, viewer: audience[k].viewer, angle: a})
			}
		}
		churn.ops[d] = ops
	}
	return schedule{workload: name, seed: seed, drivers: drivers,
		warm: []phase{warm}, cycle: []phase{churn}}
}

// bytes is the schedule's canonical encoding: what the SHA-256 printed with
// every result is taken over, and what the determinism test compares.
func (s schedule) bytes() []byte {
	var b []byte
	b = append(b, s.workload...)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.seed))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.drivers))
	for _, part := range [][]phase{s.warm, s.cycle} {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(part)))
		for _, p := range part {
			b = append(b, p.name...)
			for _, ops := range p.ops {
				b = binary.LittleEndian.AppendUint32(b, uint32(len(ops)))
				for _, o := range ops {
					b = append(b, byte(o.kind), o.angle)
					b = binary.LittleEndian.AppendUint32(b, o.viewer)
				}
			}
		}
	}
	return b
}

func (s schedule) sha256() string {
	sum := sha256.Sum256(s.bytes())
	return hex.EncodeToString(sum[:])
}
