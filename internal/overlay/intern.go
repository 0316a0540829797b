package overlay

import (
	"encoding/binary"
	"math"

	"telecast/internal/model"
)

// View interning. A production shard sees the same handful of views over
// and over — a million viewers do not request a million distinct
// orientations — but before this table every composeView miss rebuilt the
// full ViewRequest (ranked streams, cached key, site sets). The manager
// keys composed requests by a canonical byte fingerprint of the view so
// identical subscriptions share one allocation per shard; the one-entry
// memo in front of the table keeps the run-of-identical-views fast path
// free of even the fingerprint walk.

// viewInternMax bounds the intern table. Distinct views are bounded by the
// experiment catalogs (dozens), so the cap exists only to keep a
// pathological orientation sweep from growing the table without bound; on
// overflow the table resets and simply re-interns the working set.
const viewInternMax = 4096

// viewFingerprint appends a canonical encoding of the view — sites in
// sorted order, each followed by the raw float bits of its orientation —
// into the manager's reusable scratch and returns it. The returned slice is
// valid until the next call.
func (m *Manager) viewFingerprint(view model.View) []byte {
	sites := m.fpSites[:0]
	for s := range view.Orientations {
		sites = append(sites, s)
	}
	// Views hold a handful of sites; insertion sort beats sort.Slice's
	// interface overhead and allocates nothing.
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j] < sites[j-1]; j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
	buf := m.fpBuf[:0]
	for _, s := range sites {
		buf = append(buf, string(s)...)
		buf = append(buf, 0)
		o := view.Orientations[s]
		buf = appendFloatBits(buf, o.X)
		buf = appendFloatBits(buf, o.Y)
		buf = appendFloatBits(buf, o.Z)
	}
	m.fpSites, m.fpBuf = sites, buf
	return buf
}

func appendFloatBits(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}
