// Binary decision-trace format. The JSONL codec is the scaling
// bottleneck at fleet size — a completed DecisionEvent line runs ~600
// bytes and a million-device sweep emits tens of millions of events —
// so this file implements a compact length-prefixed binary container
// for the same events, with JSONL kept as an export path (`dvfstrace
// -convert`).
//
// Layout (all integers are LEB128 base-128 varints unless noted):
//
//	file    := magic block* index footer
//	magic   := "DVFSTRC1"                          (8 bytes)
//	block   := 'B' uvarint(len payload) payload
//	payload := uvarint(count) event*
//	index   := 'I' uvarint(nblocks) entry*
//	entry   := uvarint(offsetDelta) uvarint(payloadBytes)
//	           uvarint(count) uvarint(firstSeq)
//	footer  := uint64-LE(index offset) "DVFSEND1"  (16 bytes)
//
// Every block is self-contained: the per-block string table and the
// sequence-number delta chain reset at each block boundary, so the
// intern tables stay bounded and a block decodes without the ones
// before it. The index records where each block lives; the index
// entry's offsetDelta is relative to the previous block's tag byte
// (the first entry is absolute). This package's reader scans blocks
// in order and only checks that the index and footer are present,
// which is how it tells a complete trace from a truncated write.
//
// Event encoding:
//
//	event    := uvarint(flags) uvarint(presence) svarint(seq delta)
//	            str(workload) str(governor) str(device) str(platform)
//	            field* span*
//	flags    := bit 0 Predicted, 1 Done, 2 Missed, 3 has-spans
//	presence := one bit per optional field in struct order (below);
//	            a clear bit means the field is zero and costs nothing
//	str      := uvarint(id+1)                       — interned
//	          | uvarint(0) uvarint(len) bytes       — first occurrence
//	float    := uvarint(id+1)                       — interned bit pattern
//	          | uvarint(0) fixed64-LE(Float64bits)  — first occurrence
//	svarint  := zigzag varint
//	span     := str(name) svarint(depth) float(start) float(dur)
//
// Floats are interned per block by bit pattern, like strings: real
// traces repeat most float values heavily (budgets, margins, shared
// release schedules, quantized switch estimates — measured ~2.7×
// repetition on fleet traces), so a repeat costs 1-2 bytes instead of
// 8. First occurrences carry the full IEEE-754 bits fixed-width: trace
// floats are accumulated simulated-time sums with full mantissas,
// which a varint encoding would inflate to 10 bytes. Zeros are already
// free via the presence bitmap.
// Presence is keyed on the bit pattern, not numeric equality, so -0
// and NaN payloads survive a round trip bit-identically — the
// round-trip and fuzz tests rely on that.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/obs"
)

const (
	binMagic  = "DVFSTRC1"
	binEnd    = "DVFSEND1"
	tagBlock  = 'B'
	tagIndex  = 'I'
	footerLen = 16

	// defaultBlockEvents bounds events per block; defaultBlockBytes
	// additionally flushes early when a block's payload grows past it
	// (span-heavy events). Both are flush thresholds, not format
	// parameters — any reader accepts any block geometry.
	defaultBlockEvents = 2048
	defaultBlockBytes  = 1 << 19

	// maxDecodePayload rejects absurd block lengths before allocating,
	// so a corrupt or hostile file cannot OOM the reader.
	maxDecodePayload = 1 << 30
)

// Presence bit positions, in DecisionEvent struct order.
const (
	pbJob = iota
	pbTimeSec
	pbReleaseSec
	pbDeadlineSec
	pbFeatHash
	pbTFminSec
	pbTFmaxSec
	pbPredictedExecSec
	pbLevel
	pbFreqKHz
	pbFromLevel
	pbMargin
	pbBudgetSec
	pbEffBudgetSec
	pbPredictorSec
	pbSwitchSec
	pbMeasSwitchSec
	pbActualExecSec
	pbResidualSec
	pbSpanTotalSec
)

// Flag bit positions.
const (
	fbPredicted = 1 << iota
	fbDone
	fbMissed
	fbSpans
)

// blockInfo is one index entry: where a block lives and what it holds.
type blockInfo struct {
	// Offset is the absolute file offset of the block's tag byte.
	Offset int64
	// PayloadBytes is the encoded payload size (tag and length prefix
	// excluded).
	PayloadBytes int64
	// Count is the number of events in the block.
	Count int
	// FirstSeq is the sequence number of the block's first event.
	FirstSeq uint64
}

// BinaryWriter encodes decision events into the binary container. It
// implements obs.Sink: Emit is safe for concurrent use, errors are
// latched and reported by Close. Close writes the trailing index and
// footer; it does not close the underlying writer.
type BinaryWriter struct {
	mu       sync.Mutex
	w        io.Writer
	err      error
	closed   bool
	off      int64
	buf      []byte
	scratch  []byte
	events   int
	strs     map[string]uint64
	nextStr  uint64
	floats   map[uint64]uint64
	nextFlt  uint64
	prevSeq  uint64
	firstSeq uint64
	blocks   []blockInfo

	blockEvents int
	blockBytes  int
}

// NewBinaryWriter starts a binary trace on w (the magic header is
// written on the first Emit, so an aborted run leaves no bytes).
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		w:           w,
		buf:         make([]byte, 0, defaultBlockBytes/4),
		scratch:     make([]byte, 0, 64),
		strs:        make(map[string]uint64, 16),
		floats:      make(map[uint64]uint64, 256),
		blockEvents: defaultBlockEvents,
		blockBytes:  defaultBlockBytes,
	}
}

// appendUvarint appends v as a LEB128 varint.
//
//dvfs:allow-alloc amortized block-buffer growth; the steady-state encode path is 0 allocs/op (TestBinaryEncodeZeroAlloc)
func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// appendSvarint appends v zigzag-encoded.
//
//dvfs:allow-alloc amortized block-buffer growth via appendUvarint
func appendSvarint(b []byte, v int64) []byte {
	return appendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// appendFloat appends v interned against the current block's float
// table: a back-reference for a repeated bit pattern, id 0 plus the
// fixed 8-byte little-endian IEEE-754 bits on first occurrence.
//
//dvfs:allow-alloc first-seen interning (map insert) and amortized buffer growth; repeated floats are map hits with no allocation
func (bw *BinaryWriter) appendFloat(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	if id, ok := bw.floats[u]; ok {
		return appendUvarint(b, id+1)
	}
	bw.floats[u] = bw.nextFlt
	bw.nextFlt++
	b = appendUvarint(b, 0)
	return append(b,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendString appends s interned against the current block's string
// table: a back-reference for a repeated string, id 0 plus the bytes
// on first occurrence.
//
//dvfs:allow-alloc first-seen interning (map insert) and amortized buffer growth; repeated strings are map hits with no allocation
func (bw *BinaryWriter) appendString(b []byte, s string) []byte {
	if id, ok := bw.strs[s]; ok {
		return appendUvarint(b, id+1)
	}
	b = appendUvarint(b, 0)
	b = appendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	bw.strs[s] = bw.nextStr
	bw.nextStr++
	return b
}

// presenceBits derives the optional-field bitmap. Presence is keyed on
// the value's bit pattern (Float64bits != 0), not numeric equality, so
// negative zero survives the round trip.
//
//dvfs:hotpath
func presenceBits(e *obs.DecisionEvent) uint64 {
	var p uint64
	if e.Job != 0 {
		p |= 1 << pbJob
	}
	if math.Float64bits(e.TimeSec) != 0 {
		p |= 1 << pbTimeSec
	}
	if math.Float64bits(e.ReleaseSec) != 0 {
		p |= 1 << pbReleaseSec
	}
	if math.Float64bits(e.DeadlineSec) != 0 {
		p |= 1 << pbDeadlineSec
	}
	if e.FeatHash != 0 {
		p |= 1 << pbFeatHash
	}
	if math.Float64bits(e.TFminSec) != 0 {
		p |= 1 << pbTFminSec
	}
	if math.Float64bits(e.TFmaxSec) != 0 {
		p |= 1 << pbTFmaxSec
	}
	if math.Float64bits(e.PredictedExecSec) != 0 {
		p |= 1 << pbPredictedExecSec
	}
	if e.Level != 0 {
		p |= 1 << pbLevel
	}
	if e.FreqKHz != 0 {
		p |= 1 << pbFreqKHz
	}
	if e.FromLevel != 0 {
		p |= 1 << pbFromLevel
	}
	if math.Float64bits(e.Margin) != 0 {
		p |= 1 << pbMargin
	}
	if math.Float64bits(e.BudgetSec) != 0 {
		p |= 1 << pbBudgetSec
	}
	if math.Float64bits(e.EffBudgetSec) != 0 {
		p |= 1 << pbEffBudgetSec
	}
	if math.Float64bits(e.PredictorSec) != 0 {
		p |= 1 << pbPredictorSec
	}
	if math.Float64bits(e.SwitchSec) != 0 {
		p |= 1 << pbSwitchSec
	}
	if math.Float64bits(e.MeasSwitchSec) != 0 {
		p |= 1 << pbMeasSwitchSec
	}
	if math.Float64bits(e.ActualExecSec) != 0 {
		p |= 1 << pbActualExecSec
	}
	if math.Float64bits(e.ResidualSec) != 0 {
		p |= 1 << pbResidualSec
	}
	if math.Float64bits(e.SpanTotalSec) != 0 {
		p |= 1 << pbSpanTotalSec
	}
	return p
}

// appendEvent is the per-event encode path — the function every fleet
// decision funnels through, annotated and gated to stay off the heap
// in steady state (string-table hits, no buffer growth).
//
//dvfs:hotpath
func (bw *BinaryWriter) appendEvent(e *obs.DecisionEvent) {
	var flags uint64
	if e.Predicted {
		flags |= fbPredicted
	}
	if e.Done {
		flags |= fbDone
	}
	if e.Missed {
		flags |= fbMissed
	}
	if len(e.Spans) > 0 {
		flags |= fbSpans
	}
	presence := presenceBits(e)

	b := bw.buf
	b = appendUvarint(b, flags)
	b = appendUvarint(b, presence)
	b = appendSvarint(b, int64(e.Seq-bw.prevSeq))
	bw.prevSeq = e.Seq
	b = bw.appendString(b, e.Workload)
	b = bw.appendString(b, e.Governor)
	b = bw.appendString(b, e.Device)
	b = bw.appendString(b, e.Platform)

	if presence&(1<<pbJob) != 0 {
		b = appendSvarint(b, int64(e.Job))
	}
	if presence&(1<<pbTimeSec) != 0 {
		b = bw.appendFloat(b, e.TimeSec)
	}
	if presence&(1<<pbReleaseSec) != 0 {
		b = bw.appendFloat(b, e.ReleaseSec)
	}
	if presence&(1<<pbDeadlineSec) != 0 {
		b = bw.appendFloat(b, e.DeadlineSec)
	}
	if presence&(1<<pbFeatHash) != 0 {
		b = appendUvarint(b, e.FeatHash)
	}
	if presence&(1<<pbTFminSec) != 0 {
		b = bw.appendFloat(b, e.TFminSec)
	}
	if presence&(1<<pbTFmaxSec) != 0 {
		b = bw.appendFloat(b, e.TFmaxSec)
	}
	if presence&(1<<pbPredictedExecSec) != 0 {
		b = bw.appendFloat(b, e.PredictedExecSec)
	}
	if presence&(1<<pbLevel) != 0 {
		b = appendSvarint(b, int64(e.Level))
	}
	if presence&(1<<pbFreqKHz) != 0 {
		b = appendSvarint(b, e.FreqKHz)
	}
	if presence&(1<<pbFromLevel) != 0 {
		b = appendSvarint(b, int64(e.FromLevel))
	}
	if presence&(1<<pbMargin) != 0 {
		b = bw.appendFloat(b, e.Margin)
	}
	if presence&(1<<pbBudgetSec) != 0 {
		b = bw.appendFloat(b, e.BudgetSec)
	}
	if presence&(1<<pbEffBudgetSec) != 0 {
		b = bw.appendFloat(b, e.EffBudgetSec)
	}
	if presence&(1<<pbPredictorSec) != 0 {
		b = bw.appendFloat(b, e.PredictorSec)
	}
	if presence&(1<<pbSwitchSec) != 0 {
		b = bw.appendFloat(b, e.SwitchSec)
	}
	if presence&(1<<pbMeasSwitchSec) != 0 {
		b = bw.appendFloat(b, e.MeasSwitchSec)
	}
	if presence&(1<<pbActualExecSec) != 0 {
		b = bw.appendFloat(b, e.ActualExecSec)
	}
	if presence&(1<<pbResidualSec) != 0 {
		b = bw.appendFloat(b, e.ResidualSec)
	}
	if presence&(1<<pbSpanTotalSec) != 0 {
		b = bw.appendFloat(b, e.SpanTotalSec)
	}
	if flags&fbSpans != 0 {
		b = appendUvarint(b, uint64(len(e.Spans)))
		for i := range e.Spans {
			s := &e.Spans[i]
			b = bw.appendString(b, s.Name)
			b = appendSvarint(b, int64(s.Depth))
			b = bw.appendFloat(b, s.StartSec)
			b = bw.appendFloat(b, s.DurSec)
		}
	}
	bw.buf = b
	bw.events++
}

// write sends p to the underlying writer, latching the first error.
func (bw *BinaryWriter) write(p []byte) {
	if bw.err != nil {
		return
	}
	n, err := bw.w.Write(p)
	bw.off += int64(n)
	if err != nil {
		bw.err = fmt.Errorf("trace: writing binary trace: %w", err)
	}
}

// flushBlock emits the pending block and resets the per-block state
// (string and float tables, sequence chain).
func (bw *BinaryWriter) flushBlock() {
	if bw.events == 0 {
		return
	}
	info := blockInfo{Offset: bw.off, Count: bw.events, FirstSeq: bw.firstSeq}
	bw.scratch = bw.scratch[:0]
	bw.scratch = append(bw.scratch, tagBlock)
	bw.scratch = appendUvarint(bw.scratch, uint64(len(bw.buf))+uint64(uvarintLen(uint64(bw.events))))
	bw.scratch = appendUvarint(bw.scratch, uint64(bw.events))
	info.PayloadBytes = int64(len(bw.buf)) + int64(uvarintLen(uint64(bw.events)))
	bw.write(bw.scratch)
	bw.write(bw.buf)
	bw.blocks = append(bw.blocks, info)

	bw.buf = bw.buf[:0]
	bw.events = 0
	bw.prevSeq = 0
	bw.nextStr = 0
	clear(bw.strs)
	bw.nextFlt = 0
	clear(bw.floats)
}

// uvarintLen returns the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Emit implements obs.Sink.
func (bw *BinaryWriter) Emit(e *obs.DecisionEvent) {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	if bw.err != nil || bw.closed {
		return
	}
	if bw.off == 0 && len(bw.blocks) == 0 && bw.events == 0 {
		bw.write([]byte(binMagic))
	}
	if bw.events == 0 {
		bw.firstSeq = e.Seq
		bw.prevSeq = 0
	}
	bw.appendEvent(e)
	if bw.events >= bw.blockEvents || len(bw.buf) >= bw.blockBytes {
		bw.flushBlock()
	}
}

// Close flushes the final block, writes the index and footer, and
// reports the first error seen. An empty trace still gets a valid
// header, empty index, and footer.
func (bw *BinaryWriter) Close() error {
	bw.mu.Lock()
	defer bw.mu.Unlock()
	if bw.closed {
		return bw.err
	}
	bw.closed = true
	if bw.off == 0 {
		bw.write([]byte(binMagic))
	}
	bw.flushBlock()

	indexOff := bw.off
	bw.scratch = bw.scratch[:0]
	bw.scratch = append(bw.scratch, tagIndex)
	bw.scratch = appendUvarint(bw.scratch, uint64(len(bw.blocks)))
	prevOff := int64(0)
	for _, blk := range bw.blocks {
		bw.scratch = appendUvarint(bw.scratch, uint64(blk.Offset-prevOff))
		bw.scratch = appendUvarint(bw.scratch, uint64(blk.PayloadBytes))
		bw.scratch = appendUvarint(bw.scratch, uint64(blk.Count))
		bw.scratch = appendUvarint(bw.scratch, blk.FirstSeq)
		prevOff = blk.Offset
	}
	bw.write(bw.scratch)

	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[:8], uint64(indexOff))
	copy(footer[8:], binEnd)
	bw.write(footer[:])
	return bw.err
}

// WriteBinary encodes events into the binary container on w — the
// convert path (`dvfstrace -convert`) and tests use it; live sources
// attach a BinaryWriter as a sink instead.
func WriteBinary(w io.Writer, events []obs.DecisionEvent) error {
	bw := NewBinaryWriter(w)
	for i := range events {
		bw.Emit(&events[i])
	}
	return bw.Close()
}

// blockDecoder decodes one self-contained block payload.
type blockDecoder struct {
	data    []byte
	pos     int
	strs    []string
	fbits   []uint64
	prevSeq uint64
}

func (d *blockDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated varint at payload offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *blockDecoder) svarint() (int64, error) {
	u, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	return int64(u>>1) ^ -int64(u&1), nil
}

func (d *blockDecoder) float() (float64, error) {
	id, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if id > 0 {
		if id > uint64(len(d.fbits)) {
			return 0, fmt.Errorf("trace: float back-reference %d exceeds table size %d", id, len(d.fbits))
		}
		return math.Float64frombits(d.fbits[id-1]), nil
	}
	if len(d.data)-d.pos < 8 {
		return 0, fmt.Errorf("trace: truncated float at payload offset %d", d.pos)
	}
	u := binary.LittleEndian.Uint64(d.data[d.pos:])
	d.pos += 8
	d.fbits = append(d.fbits, u)
	return math.Float64frombits(u), nil
}

func (d *blockDecoder) str() (string, error) {
	id, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if id > 0 {
		if id > uint64(len(d.strs)) {
			return "", fmt.Errorf("trace: string back-reference %d exceeds table size %d", id, len(d.strs))
		}
		return d.strs[id-1], nil
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.data)-d.pos) {
		return "", fmt.Errorf("trace: string length %d overruns payload", n)
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	d.strs = append(d.strs, s)
	return s, nil
}

// event decodes the next event in the payload.
func (d *blockDecoder) event() (obs.DecisionEvent, error) {
	var e obs.DecisionEvent
	fail := func(field string, err error) (obs.DecisionEvent, error) {
		return e, fmt.Errorf("trace: decoding %s: %w", field, err)
	}
	flags, err := d.uvarint()
	if err != nil {
		return fail("flags", err)
	}
	presence, err := d.uvarint()
	if err != nil {
		return fail("presence", err)
	}
	delta, err := d.svarint()
	if err != nil {
		return fail("seq", err)
	}
	e.Seq = d.prevSeq + uint64(delta)
	d.prevSeq = e.Seq
	e.Predicted = flags&fbPredicted != 0
	e.Done = flags&fbDone != 0
	e.Missed = flags&fbMissed != 0

	if e.Workload, err = d.str(); err != nil {
		return fail("workload", err)
	}
	if e.Governor, err = d.str(); err != nil {
		return fail("governor", err)
	}
	if e.Device, err = d.str(); err != nil {
		return fail("device", err)
	}
	if e.Platform, err = d.str(); err != nil {
		return fail("platform", err)
	}

	if presence&(1<<pbJob) != 0 {
		v, err := d.svarint()
		if err != nil {
			return fail("job", err)
		}
		e.Job = int(v)
	}
	floats := []struct {
		bit int
		dst *float64
	}{
		{pbTimeSec, &e.TimeSec},
		{pbReleaseSec, &e.ReleaseSec},
		{pbDeadlineSec, &e.DeadlineSec},
	}
	for _, f := range floats {
		if presence&(1<<f.bit) != 0 {
			if *f.dst, err = d.float(); err != nil {
				return fail("time fields", err)
			}
		}
	}
	if presence&(1<<pbFeatHash) != 0 {
		if e.FeatHash, err = d.uvarint(); err != nil {
			return fail("feat_hash", err)
		}
	}
	floats = []struct {
		bit int
		dst *float64
	}{
		{pbTFminSec, &e.TFminSec},
		{pbTFmaxSec, &e.TFmaxSec},
		{pbPredictedExecSec, &e.PredictedExecSec},
	}
	for _, f := range floats {
		if presence&(1<<f.bit) != 0 {
			if *f.dst, err = d.float(); err != nil {
				return fail("prediction fields", err)
			}
		}
	}
	if presence&(1<<pbLevel) != 0 {
		v, err := d.svarint()
		if err != nil {
			return fail("level", err)
		}
		e.Level = int(v)
	}
	if presence&(1<<pbFreqKHz) != 0 {
		if e.FreqKHz, err = d.svarint(); err != nil {
			return fail("freq_khz", err)
		}
	}
	if presence&(1<<pbFromLevel) != 0 {
		v, err := d.svarint()
		if err != nil {
			return fail("from_level", err)
		}
		e.FromLevel = int(v)
	}
	floats = []struct {
		bit int
		dst *float64
	}{
		{pbMargin, &e.Margin},
		{pbBudgetSec, &e.BudgetSec},
		{pbEffBudgetSec, &e.EffBudgetSec},
		{pbPredictorSec, &e.PredictorSec},
		{pbSwitchSec, &e.SwitchSec},
		{pbMeasSwitchSec, &e.MeasSwitchSec},
		{pbActualExecSec, &e.ActualExecSec},
		{pbResidualSec, &e.ResidualSec},
		{pbSpanTotalSec, &e.SpanTotalSec},
	}
	for _, f := range floats {
		if presence&(1<<f.bit) != 0 {
			if *f.dst, err = d.float(); err != nil {
				return fail("outcome fields", err)
			}
		}
	}
	if flags&fbSpans != 0 {
		n, err := d.uvarint()
		if err != nil {
			return fail("span count", err)
		}
		if n > uint64(len(d.data)-d.pos) {
			return e, fmt.Errorf("trace: span count %d overruns payload", n)
		}
		e.Spans = make([]obs.Span, n)
		for i := range e.Spans {
			s := &e.Spans[i]
			if s.Name, err = d.str(); err != nil {
				return fail("span name", err)
			}
			depth, err := d.svarint()
			if err != nil {
				return fail("span depth", err)
			}
			s.Depth = int(depth)
			if s.StartSec, err = d.float(); err != nil {
				return fail("span start", err)
			}
			if s.DurSec, err = d.float(); err != nil {
				return fail("span dur", err)
			}
		}
	}
	return e, nil
}

// decodePayload decodes a full block payload, invoking fn per event.
func decodePayload(payload []byte, fn func(*obs.DecisionEvent) error) error {
	d := &blockDecoder{data: payload}
	count, err := d.uvarint()
	if err != nil {
		return fmt.Errorf("trace: block count: %w", err)
	}
	if count > uint64(len(payload)) {
		return fmt.Errorf("trace: block claims %d events in %d payload bytes", count, len(payload))
	}
	for i := uint64(0); i < count; i++ {
		e, err := d.event()
		if err != nil {
			return fmt.Errorf("trace: block event %d: %w", i, err)
		}
		if err := fn(&e); err != nil {
			return err
		}
	}
	if d.pos != len(payload) {
		return fmt.Errorf("trace: block has %d trailing bytes after %d events", len(payload)-d.pos, count)
	}
	return nil
}

// IsBinaryTrace reports whether prefix (at least 8 bytes of the file)
// starts a binary decision trace.
func IsBinaryTrace(prefix []byte) bool {
	return len(prefix) >= len(binMagic) && string(prefix[:len(binMagic)]) == binMagic
}

// ScanBinary streams a binary trace from r, invoking fn for every
// event in file order. The trailing index is validated for presence
// but not consumed into memory. A truncated or corrupt file is an
// error — analysis tools must not silently drop data.
func ScanBinary(r io.Reader, fn func(*obs.DecisionEvent) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	head := make([]byte, len(binMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return fmt.Errorf("trace: reading binary magic: %w", err)
	}
	if !IsBinaryTrace(head) {
		return fmt.Errorf("trace: not a binary decision trace (bad magic %q)", head)
	}
	var payload []byte
	for {
		tag, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("trace: truncated file (no index/footer): %w", err)
		}
		switch tag {
		case tagBlock:
			n, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("trace: block length: %w", err)
			}
			if n > maxDecodePayload {
				return fmt.Errorf("trace: block length %d exceeds limit", n)
			}
			if uint64(cap(payload)) < n {
				payload = make([]byte, n)
			}
			payload = payload[:n]
			if _, err := io.ReadFull(br, payload); err != nil {
				return fmt.Errorf("trace: block payload: %w", err)
			}
			if err := decodePayload(payload, fn); err != nil {
				return err
			}
		case tagIndex:
			// The last section: a sequential scan drains the index and
			// checks the footer magic.
			rest, err := io.ReadAll(br)
			if err != nil {
				return fmt.Errorf("trace: reading index: %w", err)
			}
			if len(rest) < footerLen || string(rest[len(rest)-8:]) != binEnd {
				return fmt.Errorf("trace: missing end-of-file footer (truncated write?)")
			}
			return nil
		default:
			return fmt.Errorf("trace: unknown section tag %q", tag)
		}
	}
}

// ReadBinary decodes a whole binary trace into memory.
func ReadBinary(r io.Reader) ([]obs.DecisionEvent, error) {
	var out []obs.DecisionEvent
	err := ScanBinary(r, func(e *obs.DecisionEvent) error {
		out = append(out, *e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadEvents reads a decision log in either format, sniffing the
// binary magic: dvfstrace and dvfsreplay accept JSONL and binary
// traces interchangeably through this one entry point.
func ReadEvents(r io.Reader) ([]obs.DecisionEvent, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	head, err := br.Peek(len(binMagic))
	if err != nil && len(head) == 0 && err != io.EOF {
		return nil, fmt.Errorf("trace: reading log: %w", err)
	}
	if IsBinaryTrace(head) {
		return ReadBinary(br)
	}
	return obs.ReadJSONL(br)
}
