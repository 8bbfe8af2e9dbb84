package segstore

import (
	"fmt"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// recordEncoder encodes one record, chained to c when the layout chains
// and c.ok, and returns the chain it leaves. appendRecordPayload is one;
// v1Records and v2Records encode every record as a chain start, the way
// TSG1 and TSG2 files hold them.
type recordEncoder func(dst []byte, segs []traj.Segment, c chain) ([]byte, chain)

func v1Records(dst []byte, segs []traj.Segment, _ chain) ([]byte, chain) {
	return appendRecordPayloadV1(dst, segs), chain{}
}

func v2Records(dst []byte, segs []traj.Segment, _ chain) ([]byte, chain) {
	return appendRecordPayload(dst, segs, chain{})
}

// recordSpan frames segs as one span of records of up to chunk segments
// each, every record encoded against the chain the one before it left:
// with appendRecordPayload, an index entry's span as the store writes it.
func recordSpan(segs []traj.Segment, chunk int, encode recordEncoder) []byte {
	var span, payload []byte
	var c chain
	for off := 0; off < len(segs); off += chunk {
		payload, c = encode(payload[:0], segs[off:min(off+chunk, len(segs))], c)
		span = enc.AppendFrame(span, payload)
	}
	return span
}

// chainStart is one batch as a stand-alone v2 record.
func chainStart(segs []traj.Segment) []byte {
	b, _ := appendRecordPayload(nil, segs, chain{})
	return b
}

// decodeOne decodes one stand-alone record.
func decodeOne(dst []traj.Segment, payload []byte) ([]traj.Segment, error) {
	return decodeRecordPayload(dst, payload, new(chain))
}

// appendRecordPayloadV1 is the v1 record encoder the store wrote before
// the v2 layout (record.go): tests build v1 records with it, to check
// that logs written before the upgrade keep replaying.
func appendRecordPayloadV1(dst []byte, segs []traj.Segment) []byte {
	dst = enc.AppendUvarint(dst, uint64(len(segs)))
	pd := enc.PointDelta{Quant: quantXY}
	var pidx int64
	for _, s := range segs {
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

// refDecodeRecordPayload is the v1 record decoder as first written: one
// enc call per varint, each error wrapped where it happens, segments
// appended one at a time. FuzzDecodeRecordRange holds
// decodeRecordPayload's v1 arm to its results and its errors.
func refDecodeRecordPayload(dst []traj.Segment, payload []byte) ([]traj.Segment, error) {
	count, n, err := enc.Uvarint(payload)
	if err != nil {
		return dst, fmt.Errorf("%w: record count: %v", ErrCorrupt, err)
	}
	payload = payload[n:]
	if count > uint64(len(payload))/9+1 {
		return dst, fmt.Errorf("%w: %d segments in %d bytes", ErrCorrupt, count, len(payload))
	}
	if dst == nil {
		dst = make([]traj.Segment, 0, min(count, recordChunk))
	}
	pd := enc.PointDelta{Quant: quantXY}
	var pidx int64
	get := func() (traj.Point, error) {
		x, y, tms, n, err := pd.Next(payload)
		if err != nil {
			return traj.Point{}, err
		}
		payload = payload[n:]
		return traj.Point{X: x, Y: y, T: tms}, nil
	}
	for i := uint64(0); i < count; i++ {
		var s traj.Segment
		var err error
		if s.Start, err = get(); err != nil {
			return dst, fmt.Errorf("%w: segment %d start: %v", ErrCorrupt, i, err)
		}
		if s.End, err = get(); err != nil {
			return dst, fmt.Errorf("%w: segment %d end: %v", ErrCorrupt, i, err)
		}
		dIdx, n, err := enc.Varint(payload)
		if err != nil {
			return dst, fmt.Errorf("%w: segment %d index: %v", ErrCorrupt, i, err)
		}
		payload = payload[n:]
		span, n, err := enc.Uvarint(payload)
		if err != nil {
			return dst, fmt.Errorf("%w: segment %d span: %v", ErrCorrupt, i, err)
		}
		payload = payload[n:]
		s.StartIdx = int(pidx + dIdx)
		s.EndIdx = s.StartIdx + int(span)
		pidx = int64(s.StartIdx)
		flags, n, err := enc.Uvarint(payload)
		if err != nil {
			return dst, fmt.Errorf("%w: segment %d flags: %v", ErrCorrupt, i, err)
		}
		payload = payload[n:]
		s.VirtualStart = flags&flagVirtStart != 0
		s.VirtualEnd = flags&flagVirtEnd != 0
		dst = append(dst, s)
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(payload))
	}
	return dst, nil
}

// refDecodeRecordV2 is a plain v2 decoder: a field at a time through
// enc, one segment appended at a time, with the errors decodeRecordPayload
// returns. With a nil c it is the decoder from before chaining, which
// takes a chain bit for a bad head; otherwise a record with the chain bit
// continues *c, and *c becomes the chain the record leaves (not ok after
// a failure).
func refDecodeRecordV2(dst []traj.Segment, payload []byte, c *chain) ([]traj.Segment, error) {
	var in chain
	if c != nil {
		in = *c
		c.ok = false
	}
	count, n, err := enc.Uvarint(payload)
	if err != nil {
		return dst, fmt.Errorf("%w: record count: %v", ErrCorrupt, err)
	}
	payload = payload[n:]
	if count > uint64(len(payload))/5 {
		return dst, fmt.Errorf("%w: %d segments in %d bytes", ErrCorrupt, count, len(payload))
	}
	var x, y, t int64 // the previous End in counts
	var eidx int
	field := func(i uint64, name string) (int64, error) {
		v, n, err := enc.Varint(payload)
		if err != nil {
			return 0, fmt.Errorf("%w: segment %d %s: %v", ErrCorrupt, i, name, err)
		}
		payload = payload[n:]
		return v, nil
	}
	for i := uint64(0); i < count; i++ {
		if len(payload) == 0 {
			return dst, fmt.Errorf("%w: segment %d head: %v", ErrCorrupt, i, enc.ErrShortBuffer)
		}
		head := payload[0]
		payload = payload[1:]
		flags, mode := head&3, head>>2
		chained := c != nil && i == 0 && mode&4 != 0
		if chained {
			mode &^= 4
		}
		if mode > 3 || i == 0 && !chained && mode != 3 {
			return dst, fmt.Errorf("%w: segment %d: bad head %#x", ErrCorrupt, i, head)
		}
		if chained {
			if !in.ok {
				return dst, fmt.Errorf("%w: segment 0: chained record without a chain start", ErrCorrupt)
			}
			x, y, t, eidx = in.x, in.y, in.t, in.idx
		}
		s := traj.Segment{VirtualStart: flags&1 != 0, VirtualEnd: flags&2 != 0}
		sx, sy, st, sidx := x, y, t, eidx
		switch mode {
		case 1:
			sidx++
		case 2, 3:
			if mode == 3 {
				var d [3]int64
				for k := range d {
					if d[k], err = field(i, "start"); err != nil {
						return dst, err
					}
				}
				sx, sy, st = sx+d[0], sy+d[1], st+d[2]
			}
			d, err := field(i, "index")
			if err != nil {
				return dst, err
			}
			sidx += int(d)
		}
		var d [3]int64
		for k := range d {
			if d[k], err = field(i, "end"); err != nil {
				return dst, err
			}
		}
		span, n, err := enc.Uvarint(payload)
		if err != nil {
			return dst, fmt.Errorf("%w: segment %d span: %v", ErrCorrupt, i, err)
		}
		payload = payload[n:]
		x, y, t = sx+d[0], sy+d[1], st+d[2]
		s.Start = traj.Point{X: float64(sx) * quantXY, Y: float64(sy) * quantXY, T: st}
		s.End = traj.Point{X: float64(x) * quantXY, Y: float64(y) * quantXY, T: t}
		s.StartIdx, s.EndIdx = sidx, sidx+int(span)
		eidx = s.EndIdx
		dst = append(dst, s)
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupt, len(payload))
	}
	if c != nil {
		*c = chain{x: x, y: y, t: t, idx: eidx, ok: count > 0}
	}
	return dst, nil
}

// refDecodeRecordRange is decodeRecordRange over the reference decoders:
// the span starts with no chain, and a v1 record breaks it.
func refDecodeRecordRange(dst []traj.Segment, b []byte) ([]traj.Segment, error) {
	var c chain
	for off := 0; off < len(b); {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return dst, err
		}
		if len(payload) > 0 && payload[0] == recordV2 {
			dst, err = refDecodeRecordV2(dst, payload[1:], &c)
		} else {
			c.ok = false
			dst, err = refDecodeRecordPayload(dst, payload)
		}
		if err != nil {
			return dst, err
		}
		off += n
	}
	return dst, nil
}

// scanLogV1 is scanLog as it was before the v2 layout — TSG1 files
// only, each record decoded as v1 — reduced to the length of the valid
// prefix it returns.
func scanLogV1(b []byte) (int64, error) {
	if len(b) < len(fileMagicV1) {
		return 0, nil
	}
	if string(b[:len(fileMagicV1)]) != fileMagicV1 {
		return 0, fmt.Errorf("%w: bad file magic %q", ErrCorrupt, b[:len(fileMagicV1)])
	}
	off := int64(len(fileMagicV1))
	for off < int64(len(b)) {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return off, nil
		}
		if _, err := refDecodeRecordPayload(nil, payload); err != nil {
			return off, nil
		}
		off += int64(n)
	}
	return off, nil
}

// scanLogV2 is scanLog as it was before chaining — TSG1 and TSG2 files,
// each record decoded on its own, a chain bit taken for a bad head —
// reduced to the length of the valid prefix it returns.
func scanLogV2(b []byte) (int64, error) {
	if len(b) < len(fileMagicV2) {
		return 0, nil
	}
	if m := string(b[:len(fileMagicV2)]); m != fileMagicV2 && m != fileMagicV1 {
		return 0, fmt.Errorf("%w: bad file magic %q", ErrCorrupt, m)
	}
	off := int64(len(fileMagicV2))
	for off < int64(len(b)) {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return off, nil
		}
		if len(payload) > 0 && payload[0] == recordV2 {
			_, err = refDecodeRecordV2(nil, payload[1:], nil)
		} else {
			_, err = refDecodeRecordPayload(nil, payload)
		}
		if err != nil {
			return off, nil
		}
		off += int64(n)
	}
	return off, nil
}
