package segstore

import (
	"fmt"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

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

// refDecodeRecordRange is decodeRecordRange over the reference decoder.
func refDecodeRecordRange(dst []traj.Segment, b []byte) ([]traj.Segment, error) {
	for off := 0; off < len(b); {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return dst, err
		}
		if dst, err = refDecodeRecordPayload(dst, payload); err != nil {
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
