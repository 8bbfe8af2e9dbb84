package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// On-disk record payload: one batch of finalized segments for one
// device, varint delta-coded with the same 1 cm / 1 ms quantization as
// the wire formats in internal/trajio. Payloads are wrapped in
// enc.AppendFrame CRC framing by the log writer. A payload is in one of
// two layouts, told apart by its first byte.
//
// v1, written before the v2 layout (in TSG1 files) and still decoded:
//
//	uvarint(count) | count × (Start End zigzag(StartIdx−prevStartIdx) uvarint(EndIdx−StartIdx) uvarint(flags))
//
// where Start and End are three zigzag deltas each (x, y in 1 cm, t in
// 1 ms) against the point written before them — so a continuous
// segment's Start costs three zero bytes — and flags holds VirtualStart
// (bit 0) and VirtualEnd (bit 1), as in PWB1. count is never 0.
//
// v2, the only layout written now:
//
//	0x00 | uvarint(count) | count × (head [Start] [zigzag(StartIdx−prevEndIdx)] End uvarint(EndIdx−StartIdx))
//
// The leading 0x00 (a v1 count is never 0) marks the layout. head is a
// uvarint below 32, so one byte: the flag bits as in v1, in bits 2–3
// how Start is stored, and in bit 4, on a record's first segment only,
// the chain bit (below); every other bit is 0, and the decoder rejects
// any other head byte:
//
//	mode 0: Start is the previous End; StartIdx is the previous EndIdx
//	mode 1: Start is the previous End; StartIdx is the previous EndIdx + 1
//	mode 2: Start is the previous End; StartIdx follows as a varint
//	mode 3: Start follows as three deltas against the previous End, then StartIdx
//
// End is three deltas against Start. The encoder picks a lower mode
// only when the quantized values are equal, so a v2 record decodes to
// exactly the segments the v1 record of the same batch decodes to; a
// continuous stream's segment costs its head, End and span: 5 bytes at
// the least.
//
// Chains. A record whose first head carries the chain bit is chained:
// its first segment is coded against the last End and EndIdx of the
// record before it in the file, in any of the four modes, so decoding
// it needs that record. Any other record is a chain start: its first
// segment is mode 3 against the origin (0, 0, 0) and index 0. Every v1
// record, and every record of a TSG2 file, is a chain start. The log
// writer (segstore.go) makes a record a chain start exactly where it
// opens a time-index entry (index.go), so the self-contained unit — the
// span a reader starts decoding at — is the index entry, not the record,
// and a live append's small record no longer restates an absolute
// position, time and index. On the gen presets' OPERB-A output that is
// 14.2 bytes per segment for the records of 16-point batches, one to
// three segments each, against 21.0 unchained, and 11.2 for 256-point
// batches against 11.7, framing included (TestStoredBytesPerSegment).

// ErrCorrupt is returned when a log file fails validation somewhere a
// torn tail cannot explain (bad magic, or a broken record that is not
// the last).
var ErrCorrupt = errors.New("segstore: corrupt log")

const (
	// quantXY is the coordinate quantum in meters (1 cm), matching
	// trajio's wire encodings so a replayed segment equals its
	// transmitted form.
	quantXY = 0.01
	// flag bits, identical to the PWB1 piecewise encoding.
	flagVirtStart = 1
	flagVirtEnd   = 2
	// recordV2 is the first byte of a v2 payload. headModeShift places the
	// start mode in a v2 head; headChained is the chain bit of a record's
	// first head. A head at or above maxHead, the chain bit aside, is
	// malformed.
	recordV2      = 0x00
	headModeShift = 2
	headChained   = 16
	maxHead       = 16
	// v2 start modes (see the layout above).
	modeSame     = 0 // Start = previous End, StartIdx = previous EndIdx
	modeNext     = 1 // Start = previous End, StartIdx = previous EndIdx + 1
	modeIndex    = 2 // Start = previous End, StartIdx stored
	modeAbsolute = 3 // Start and StartIdx stored
	// minSegBytesV1 and minSegBytesV2 are the fewest bytes one segment can
	// take in each layout: nine one-byte varints in v1; head, three End
	// deltas and the span in v2.
	minSegBytesV1 = 9
	minSegBytesV2 = 5
	// maxRecordPayload bounds one record on disk; appendRecords chunks
	// larger batches. A scan hitting a bigger declared size treats it as
	// a torn length prefix.
	maxRecordPayload = 4 << 20
	// recordChunk is the most segments one record holds (~50 encoded
	// bytes each, far under maxRecordPayload).
	recordChunk = 16384
	// maxTornTail is the most invalid trailing bytes recovery will accept
	// as a torn write: one maximal record frame (payload + length prefix
	// + CRC). A longer invalid region cannot come from a single
	// interrupted append and is reported as corruption instead.
	maxTornTail = maxRecordPayload + 16
)

// chain is what a chained record is coded against: the last End of the
// record before it, in 1 cm and 1 ms counts, and its EndIdx. ok is
// false where no record can chain: before a file's first record, after
// a v1 or an empty record, and after a record that failed to decode.
type chain struct {
	x, y, t int64
	idx     int
	ok      bool
}

// appendRecordPayload encodes one batch of segments as a v2 payload,
// appending to dst. The record is chained to c when c.ok, else a chain
// start. It returns the chain the next record may continue: segs' last
// End and EndIdx.
func appendRecordPayload(dst []byte, segs []traj.Segment, c chain) ([]byte, chain) {
	dst = append(dst, recordV2)
	dst = enc.AppendUvarint(dst, uint64(len(segs)))
	if !c.ok {
		c = chain{} // a chain start is coded against the origin and index 0
	}
	x, y, t, eidx := c.x, c.y, c.t, c.idx // the previous End, quantized, and EndIdx
	for i, s := range segs {
		sx, sy := quantCount(s.Start.X), quantCount(s.Start.Y)
		mode := modeAbsolute
		if (i > 0 || c.ok) && sx == x && sy == y && s.Start.T == t {
			switch s.StartIdx - eidx {
			case 0:
				mode = modeSame
			case 1:
				mode = modeNext
			default:
				mode = modeIndex
			}
		}
		head := byte(mode << headModeShift)
		if i == 0 && c.ok {
			head |= headChained
		}
		if s.VirtualStart {
			head |= flagVirtStart
		}
		if s.VirtualEnd {
			head |= flagVirtEnd
		}
		dst = append(dst, head)
		if mode == modeAbsolute {
			dst = enc.AppendVarint(dst, sx-x)
			dst = enc.AppendVarint(dst, sy-y)
			dst = enc.AppendVarint(dst, s.Start.T-t)
		}
		if mode >= modeIndex {
			dst = enc.AppendVarint(dst, int64(s.StartIdx-eidx))
		}
		x, y, t = quantCount(s.End.X), quantCount(s.End.Y), s.End.T
		dst = enc.AppendVarint(dst, x-sx)
		dst = enc.AppendVarint(dst, y-sy)
		dst = enc.AppendVarint(dst, t-s.Start.T)
		dst = enc.AppendUvarint(dst, uint64(s.EndIdx-s.StartIdx))
		eidx = s.EndIdx
	}
	return dst, chain{x: x, y: y, t: t, idx: eidx, ok: len(segs) > 0}
}

// quantCount maps a coordinate onto its 1 cm count, the way
// enc.PointDelta does for v1 records.
func quantCount(v float64) int64 { return int64(math.Round(v / quantXY)) }

// decodeRecordPayload decodes one record payload of either layout,
// appending the segments to dst. c is the chain a chained record
// continues; it becomes the chain the record leaves for the next one,
// and is broken (not ok) after a failure. Every span read pays for
// this, so both layouts decode in place: dst grows once from the
// record's count and each segment is written straight into it. A
// one-byte varint — most of a continuous stream's fields — takes a fast
// path, and an error is built only once decoding has failed.
// FuzzDecodeRecordRange holds the v1 arm to the decoder built on
// PointDelta.Next that it replaced; FuzzRecordV2 holds the v2 arm to
// the encoder, and FuzzRecordChain chained spans to a plain reference
// decoder.
func decodeRecordPayload(dst []traj.Segment, payload []byte, c *chain) ([]traj.Segment, error) {
	if len(payload) > 0 && payload[0] == recordV2 {
		return decodeRecordV2(dst, payload[1:], c)
	}
	c.ok = false // a v1 record is never continued
	return decodeRecordV1(dst, payload)
}

// decodeRecordV1 decodes a v1 payload.
func decodeRecordV1(dst []traj.Segment, payload []byte) ([]traj.Segment, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: record count: %v", ErrCorrupt, varintErr(n))
	}
	payload = payload[n:]
	// A count beyond one segment per minSegBytesV1 is malformed, and
	// checking first bounds the allocation below.
	if count > uint64(len(payload))/minSegBytesV1+1 {
		return dst, fmt.Errorf("%w: %d segments in %d bytes", ErrCorrupt, count, len(payload))
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))[:base+int(count)]
	var x, y, t, pidx int64
	var v [9]uint64 // Start x, y, t; End x, y, t; start-index delta, index span, flags
	p := 0
	for i := range dst[base:] {
		for k := range v {
			if p < len(payload) && payload[p] < 0x80 {
				v[k] = uint64(payload[p])
				p++
				continue
			}
			u, m := binary.Uvarint(payload[p:])
			if m <= 0 {
				return dst[:base+i], fmt.Errorf("%w: segment %d %s: %v", ErrCorrupt, i, segmentFields[k], varintErr(m))
			}
			v[k] = u
			p += m
		}
		s := &dst[base+i]
		x += unzigzag(v[0])
		y += unzigzag(v[1])
		t += unzigzag(v[2])
		s.Start = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
		x += unzigzag(v[3])
		y += unzigzag(v[4])
		t += unzigzag(v[5])
		s.End = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
		s.StartIdx = int(pidx + unzigzag(v[6]))
		s.EndIdx = s.StartIdx + int(v[7])
		pidx = int64(s.StartIdx)
		s.VirtualStart = v[8]&flagVirtStart != 0
		s.VirtualEnd = v[8]&flagVirtEnd != 0
	}
	if p != len(payload) {
		return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(payload)-p)
	}
	return dst, nil
}

// decodeRecordV2 decodes a v2 payload after its leading 0x00, chained
// to c if its first head says so.
func decodeRecordV2(dst []traj.Segment, payload []byte, c *chain) ([]traj.Segment, error) {
	in := *c
	c.ok = false
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: record count: %v", ErrCorrupt, varintErr(n))
	}
	payload = payload[n:]
	if count > uint64(len(payload))/minSegBytesV2 {
		return dst, fmt.Errorf("%w: %d segments in %d bytes", ErrCorrupt, count, len(payload))
	}
	base := len(dst)
	dst = slices.Grow(dst, int(count))[:base+int(count)]
	var x, y, t int64   // the previous End, quantized
	var prev traj.Point // the previous End, decoded
	var eidx int        // the previous EndIdx
	// A chained record starts from c. (count > 0 means the payload holds
	// at least a head; a first head that is malformed besides its chain
	// bit is reported by the loop.)
	if count > 0 && payload[0]&headChained != 0 && payload[0]&^headChained < maxHead {
		if !in.ok {
			return dst[:base], fmt.Errorf("%w: segment 0: chained record without a chain start", ErrCorrupt)
		}
		x, y, t, eidx = in.x, in.y, in.t, in.idx
		prev = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
	}
	var v [8]uint64 // Start x, y, t; start-index delta; End x, y, t; index span
	p := 0
	for i := range dst[base:] {
		if p >= len(payload) {
			return dst[:base+i], fmt.Errorf("%w: segment %d head: %v", ErrCorrupt, i, enc.ErrShortBuffer)
		}
		head := payload[p]
		p++
		h := head // the head without a first segment's chain bit
		if i == 0 {
			h &^= headChained
		}
		mode := h >> headModeShift
		if h >= maxHead || i == 0 && h == head && mode != modeAbsolute {
			return dst[:base+i], fmt.Errorf("%w: segment %d: bad head %#x", ErrCorrupt, i, head)
		}
		// A mode stores the fields from firstField[mode] on.
		for k := firstField[mode]; k < len(v); k++ {
			if p < len(payload) && payload[p] < 0x80 {
				v[k] = uint64(payload[p])
				p++
				continue
			}
			u, m := binary.Uvarint(payload[p:])
			if m <= 0 {
				return dst[:base+i], fmt.Errorf("%w: segment %d %s: %v", ErrCorrupt, i, segmentFieldsV2[k], varintErr(m))
			}
			v[k] = u
			p += m
		}
		s := &dst[base+i]
		switch mode {
		case modeSame:
			s.Start, s.StartIdx = prev, eidx
		case modeNext:
			s.Start, s.StartIdx = prev, eidx+1
		case modeIndex:
			s.Start, s.StartIdx = prev, eidx+int(unzigzag(v[3]))
		default:
			x += unzigzag(v[0])
			y += unzigzag(v[1])
			t += unzigzag(v[2])
			s.Start = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
			s.StartIdx = eidx + int(unzigzag(v[3]))
		}
		x += unzigzag(v[4])
		y += unzigzag(v[5])
		t += unzigzag(v[6])
		s.End = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
		s.EndIdx = s.StartIdx + int(v[7])
		s.VirtualStart = head&flagVirtStart != 0
		s.VirtualEnd = head&flagVirtEnd != 0
		prev, eidx = s.End, s.EndIdx
	}
	if p != len(payload) {
		return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(payload)-p)
	}
	*c = chain{x: x, y: y, t: t, idx: eidx, ok: count > 0}
	return dst, nil
}

// chainedRecord reports whether payload, a record that decoded, is
// chained to the record before it.
func chainedRecord(payload []byte) bool {
	if len(payload) == 0 || payload[0] != recordV2 {
		return false
	}
	count, n := binary.Uvarint(payload[1:])
	return n > 0 && count > 0 && 1+n < len(payload) && payload[1+n]&headChained != 0
}

// firstField is the first of a v2 segment's varints each start mode
// stores: none of Start, StartIdx only from mode 2, everything in mode 3.
var firstField = [4]int{modeSame: 4, modeNext: 4, modeIndex: 3, modeAbsolute: 0}

// segmentFields and segmentFieldsV2 name a segment's varints in error
// messages.
var (
	segmentFields   = [9]string{"start", "start", "start", "end", "end", "end", "index", "span", "flags"}
	segmentFieldsV2 = [8]string{"start", "start", "start", "index", "end", "end", "end", "span"}
)

// unzigzag undoes the zigzag mapping of a signed varint.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintErr maps a failed binary.Uvarint byte count to enc's error: 0
// means the input ran out, negative that the value overflows 64 bits.
func varintErr(n int) error {
	if n == 0 {
		return enc.ErrShortBuffer
	}
	return enc.ErrOverflow
}
