package segstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// On-disk record payload: one batch of finalized segments for one
// device, varint delta-coded with the same 1 cm / 1 ms quantization as
// the wire formats in internal/trajio. Each payload is self-contained
// (delta state resets per record), so any prefix of a log replays
// without the records that follow it — the property torn-tail recovery
// relies on. Payloads are wrapped in enc.AppendFrame CRC framing by the
// log writer.

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

// appendRecordPayload encodes one batch of segments, appending to dst.
func appendRecordPayload(dst []byte, segs []traj.Segment) []byte {
	dst = enc.AppendUvarint(dst, uint64(len(segs)))
	pd := enc.PointDelta{Quant: quantXY}
	var pidx int64
	for _, s := range segs {
		// Start is usually the previous segment's End (continuous
		// piecewise), making its delta three zero bytes.
		dst = pd.Append(dst, s.Start.X, s.Start.Y, s.Start.T)
		dst = pd.Append(dst, s.End.X, s.End.Y, s.End.T)
		dst = enc.AppendVarint(dst, int64(s.StartIdx)-pidx)
		dst = enc.AppendUvarint(dst, uint64(s.EndIdx-s.StartIdx))
		pidx = int64(s.StartIdx)
		var flags uint64
		if s.VirtualStart {
			flags |= flagVirtStart
		}
		if s.VirtualEnd {
			flags |= flagVirtEnd
		}
		dst = enc.AppendUvarint(dst, flags)
	}
	return dst
}

// decodeRecordPayload decodes one record payload, appending the segments
// to dst. Every span read pays for this loop, so it decodes in place:
// dst grows once from the record's count and each segment is written
// straight into it, its points read inline in enc.PointDelta's encoding.
// A one-byte varint — a continuous stream's zero Start deltas, its index
// and flag fields — takes a fast path, and an error is built only once
// decoding has failed. FuzzDecodeRecordRange holds it to the decoder
// built on PointDelta.Next that it replaced.
func decodeRecordPayload(dst []traj.Segment, payload []byte) ([]traj.Segment, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return dst, fmt.Errorf("%w: record count: %v", ErrCorrupt, varintErr(n))
	}
	payload = payload[n:]
	// Nine varints per segment, one byte each at minimum — a count beyond
	// that is malformed, and checking first bounds the allocation below.
	if count > uint64(len(payload))/9+1 {
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

// segmentFields names a segment's nine varints in error messages.
var segmentFields = [9]string{"start", "start", "start", "end", "end", "end", "index", "span", "flags"}

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
