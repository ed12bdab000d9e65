package features

import (
	"fmt"
	"sort"
	"strconv"
)

// WireTrace is the JSON wire form of a Trace, used by the dvfsd
// serving API: the client records features by running the prediction
// slice (or the instrumented program) locally and ships the sparse
// trace to the daemon, which vectorizes it under the trained model's
// schema. Counter values are keyed by decimal FID (JSON object keys
// are strings); call-address sets are keyed the same way with the
// addresses sorted ascending, so encoding is deterministic.
type WireTrace struct {
	// Counts holds branch/loop counter values keyed by decimal FID.
	Counts map[string]int64 `json:"counts,omitempty"`
	// Calls holds the sorted addresses each call-site FID dispatched
	// to, keyed by decimal FID.
	Calls map[string][]int64 `json:"calls,omitempty"`
}

// Wire converts the trace to its wire form. The result shares no
// state with the trace.
func (t *Trace) Wire() WireTrace {
	w := WireTrace{}
	if len(t.Counts) > 0 {
		w.Counts = make(map[string]int64, len(t.Counts))
		for fid, v := range t.Counts {
			w.Counts[strconv.Itoa(fid)] = v
		}
	}
	if len(t.CallAddrs) > 0 {
		w.Calls = make(map[string][]int64, len(t.CallAddrs))
		for fid, set := range t.CallAddrs {
			addrs := make([]int64, 0, len(set))
			for a := range set {
				addrs = append(addrs, a)
			}
			sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
			w.Calls[strconv.Itoa(fid)] = addrs
		}
	}
	return w
}

// Trace reconstructs a Trace from the wire form. A FID key must be
// the number as strconv.Itoa spells it; anything else is an error — a
// serving endpoint must reject it, not guess.
func (w WireTrace) Trace() (*Trace, error) {
	tr := NewTrace()
	for key, v := range w.Counts {
		fid, ok := parseFID(key)
		if !ok {
			return nil, fmt.Errorf("features: bad counter FID key %q", key)
		}
		tr.Counts[fid] = v
	}
	for key, addrs := range w.Calls {
		fid, ok := parseFID(key)
		if !ok {
			return nil, fmt.Errorf("features: bad call FID key %q", key)
		}
		set := make(map[int64]bool, len(addrs))
		for _, a := range addrs {
			set[a] = true
		}
		tr.CallAddrs[fid] = set
	}
	return tr, nil
}

// parseFID parses a wire FID key. strconv.Atoi alone also takes "07",
// "+7" and "-0"; two such spellings of one FID in a map would make the
// decoded value depend on map iteration order, so only Itoa's own
// spelling is accepted.
func parseFID(key string) (int, bool) {
	fid, err := strconv.Atoi(key)
	if err != nil {
		return 0, false
	}
	var buf [20]byte
	return fid, string(strconv.AppendInt(buf[:0], int64(fid), 10)) == key
}
