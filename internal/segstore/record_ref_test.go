package segstore

import (
	"fmt"

	"trajsim/internal/enc"
	"trajsim/internal/traj"
)

// refDecodeRecordPayload is the record decoder as first written: one
// enc call per varint, each error wrapped where it happens, segments
// appended one at a time. FuzzDecodeRecordRange holds
// decodeRecordPayload to its results and its errors.
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
