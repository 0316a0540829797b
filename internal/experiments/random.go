package experiments

// This file implements the Random dissemination scheme the paper compares
// against (§VII, Fig. 15): the randomized routing of [19] that works well
// among producers but lacks 4D TeleCast's clustering and bandwidth
// pre-allocation. A joining node is randomly attached, per stream, to any
// node that can still serve the request; there is no view grouping, no
// priority-ordered inbound allocation, no round-robin outbound
// pre-allocation, and no degree push-down.

import (
	"fmt"
	"math/rand"

	"telecast/internal/cdn"
	"telecast/internal/model"
)

// randomViewer is the baseline's per-viewer record.
type randomViewer struct {
	ID           model.ViewerID
	InboundMbps  float64
	OutboundMbps float64
	// inUsed and outUsed track consumed capacity; outbound is consumed
	// on demand, first-come first-served, with no per-stream reservation.
	inUsed  float64
	outUsed float64
	// Streams maps accepted streams to the parent serving them ("" for
	// the CDN).
	Streams map[model.StreamID]model.ViewerID
	// children counts subscribers per stream (for departure handling).
	children map[model.StreamID][]model.ViewerID
}

// randomRouter is the random-dissemination control plane.
type randomRouter struct {
	session *model.Session
	cdn     *cdn.CDN
	rng     *rand.Rand
	cutoff  float64

	viewers map[model.ViewerID]*randomViewer
	// receivers lists, per stream, the viewers currently receiving it —
	// the candidate parent pool.
	receivers map[model.StreamID][]model.ViewerID

	streamsRequested int
	streamsAccepted  int
	viewersRejected  int
}

// newRandomRouter builds a baseline router. The rng drives parent
// selection; pass a seeded source for reproducible experiments.
func newRandomRouter(session *model.Session, dist *cdn.CDN, rng *rand.Rand, cutoffDF float64) (*randomRouter, error) {
	if session == nil || dist == nil || rng == nil {
		return nil, fmt.Errorf("baseline router: session, cdn, and rng are required")
	}
	return &randomRouter{
		session:   session,
		cdn:       dist,
		rng:       rng,
		cutoff:    cutoffDF,
		viewers:   make(map[model.ViewerID]*randomViewer),
		receivers: make(map[model.StreamID][]model.ViewerID),
	}, nil
}

// randomJoinResult mirrors the overlay's result shape for the comparison
// harness.
type randomJoinResult struct {
	Admitted bool
	Accepted []model.StreamID
}

// join admits a viewer: for every requested stream (no priority order — the
// baseline treats streams uniformly), pick a random capable parent, else the
// CDN, else drop the stream. The same admission rule as 4D TeleCast applies
// so the comparison is fair: at least one stream per producer site.
func (r *randomRouter) join(id model.ViewerID, inMbps, outMbps float64, view model.View) (*randomJoinResult, error) {
	if _, dup := r.viewers[id]; dup {
		return nil, fmt.Errorf("baseline join %s: viewer exists", id)
	}
	req := model.ComposeView(r.session, view, r.cutoff)
	r.streamsRequested += len(req.Streams)

	v := &randomViewer{
		ID:           id,
		InboundMbps:  inMbps,
		OutboundMbps: outMbps,
		Streams:      make(map[model.StreamID]model.ViewerID),
		children:     make(map[model.StreamID][]model.ViewerID),
	}

	// Random scheme: shuffle the request so no priority bias exists.
	order := make([]model.RankedStream, len(req.Streams))
	copy(order, req.Streams)
	r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	type grant struct {
		id     model.StreamID
		bw     float64
		parent model.ViewerID
		viaCDN bool
	}
	// Grants consume capacity immediately so that several streams of one
	// join cannot oversubscribe the same parent; a failed admission rolls
	// everything back.
	var grants []grant
	for _, rs := range order {
		bw := rs.Stream.BitrateMbps
		if v.inUsed+bw > v.InboundMbps+1e-9 {
			continue
		}
		if parent, ok := r.pickParent(rs.Stream.ID, bw); ok {
			r.viewers[parent].outUsed += bw
			grants = append(grants, grant{id: rs.Stream.ID, bw: bw, parent: parent})
			v.inUsed += bw
			continue
		}
		if r.cdn.Allocate(rs.Stream.ID, bw) == nil {
			grants = append(grants, grant{id: rs.Stream.ID, bw: bw, viaCDN: true})
			v.inUsed += bw
		}
	}

	// Admission: at least one stream per requested site.
	need := req.SitesCovered()
	for _, g := range grants {
		delete(need, g.id.Site)
	}
	if len(need) > 0 {
		for _, g := range grants {
			if g.viaCDN {
				_ = r.cdn.Release(g.id, g.bw)
			} else {
				r.viewers[g.parent].outUsed -= g.bw
			}
		}
		r.viewersRejected++
		r.viewers[id] = v // known but empty, mirroring the overlay's books
		return &randomJoinResult{Admitted: false}, nil
	}

	res := &randomJoinResult{Admitted: true}
	for _, g := range grants {
		if g.viaCDN {
			v.Streams[g.id] = ""
		} else {
			p := r.viewers[g.parent]
			p.children[g.id] = append(p.children[g.id], id)
			v.Streams[g.id] = g.parent
		}
		r.receivers[g.id] = append(r.receivers[g.id], id)
		res.Accepted = append(res.Accepted, g.id)
	}
	r.streamsAccepted += len(res.Accepted)
	r.viewers[id] = v
	return res, nil
}

// pickParent draws one uniformly random viewer already receiving the stream
// and checks whether it has enough spare outbound: the paper's random
// attachment ("a joining node is randomly attached to another node, which
// can serve the request").
func (r *randomRouter) pickParent(id model.StreamID, bw float64) (model.ViewerID, bool) {
	pool := r.receivers[id]
	if len(pool) == 0 {
		return "", false
	}
	cand := pool[r.rng.Intn(len(pool))]
	p := r.viewers[cand]
	if p != nil && p.outUsed+bw <= p.OutboundMbps+1e-9 {
		return cand, true
	}
	return "", false
}

// randomSnapshot summarizes acceptance for the comparison plots.
type randomSnapshot struct {
	Viewers          int
	Rejected         int
	StreamsRequested int
	StreamsAccepted  int
	CDNUsage         cdn.Usage
}

// AcceptanceRatio returns ρ for the baseline.
func (s randomSnapshot) AcceptanceRatio() float64 {
	if s.StreamsRequested == 0 {
		return 1
	}
	return float64(s.StreamsAccepted) / float64(s.StreamsRequested)
}

// snapshot returns the current accounting.
func (r *randomRouter) snapshot() randomSnapshot {
	return randomSnapshot{
		Viewers:          len(r.viewers),
		Rejected:         r.viewersRejected,
		StreamsRequested: r.streamsRequested,
		StreamsAccepted:  r.streamsAccepted,
		CDNUsage:         r.cdn.Snapshot(),
	}
}
