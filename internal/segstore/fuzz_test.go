package segstore

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"trajsim/internal/enc"
	"trajsim/internal/gen"
	"trajsim/internal/traj"
)

// FuzzEscapeDeviceRoundTrip: directory names are the store's only
// mapping from device IDs to disk, so the escape must be lossless, emit
// only filesystem-safe names, and be canonical — no two directory names
// may unescape to the same device ID, or Devices would report phantom
// duplicates and foreign directories could alias a real device's log.
func FuzzEscapeDeviceRoundTrip(f *testing.F) {
	for _, s := range []string{
		"", "plain-01", "has space", "slash/../../etc", "unicode-héllo",
		"%00", "%2F", "%2f", "%61", ".", "..", "Car-1", "a_b-c9",
		string([]byte{0, 255, '%'}),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		esc := escapeDevice(s)
		if s != "" {
			// Safety: always a single, non-special path element.
			if esc == "" || esc == "." || esc == ".." || filepath.Base(esc) != esc {
				t.Fatalf("%q escapes to unsafe name %q", s, esc)
			}
			for i := 0; i < len(esc); i++ {
				c := esc[i]
				if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' ||
					c == '_' || c == '-' || c == '%' || c >= 'A' && c <= 'F') {
					t.Fatalf("%q escapes to %q containing byte %q", s, esc, c)
				}
			}
		}
		// Lossless: every ID round-trips through its directory name.
		back, err := unescapeDevice(esc)
		if err != nil {
			t.Fatalf("%q -> %q does not unescape: %v", s, esc, err)
		}
		if back != s {
			t.Fatalf("%q -> %q -> %q", s, esc, back)
		}
		// Canonical: any name unescapeDevice accepts must be exactly what
		// escapeDevice would emit for the decoded ID.
		if dev, err := unescapeDevice(s); err == nil {
			if again := escapeDevice(dev); again != s {
				t.Fatalf("non-canonical name %q accepted (device %q canonically escapes to %q)", s, dev, again)
			}
		}
	})
}

// FuzzDecodeIndex: index sidecars live on disk where anything can happen
// to them, and the decoder's contract is total: arbitrary bytes either
// decode or fail with errBadIndex — never panic, never over-allocate,
// never yield entries that violate the invariants readers rely on
// (strictly increasing offsets past the file magic, minT ≤ maxT).
func FuzzDecodeIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(idxMagic))
	valid := appendIndexFile(nil, 4096, []indexEntry{
		{off: int64(len(fileMagic)), minT: 1000, maxT: 2000, wall: 50},
		{off: 700, minT: 1500, maxT: 3000, wall: 60},
		{off: 2100, minT: 3000, maxT: 3001, wall: 60},
	})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(appendIndexFile(nil, 10, nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		dataLen, entries, err := decodeIndexFile(b)
		if err != nil {
			if !errors.Is(err, errBadIndex) {
				t.Fatalf("non-sentinel error %v", err)
			}
			return
		}
		prevOff := int64(len(fileMagic)) - 1
		for i, e := range entries {
			if e.off <= prevOff || e.off >= dataLen || e.minT > e.maxT {
				t.Fatalf("entry %d violates invariants: %+v (dataLen %d)", i, e, dataLen)
			}
			prevOff = e.off
		}
		// Accepted input must round-trip byte-identically: the encoding is
		// canonical, so a re-encode of the decoded entries is the original.
		again := appendIndexFile(nil, dataLen, entries)
		if string(again) != string(b) {
			t.Fatalf("accepted sidecar is not canonical:\n in %x\nout %x", b, again)
		}
	})
}

// FuzzDecodeRecordRange holds the in-place decoder's v1 arm to the
// reference decoder it replaced (record_ref_test.go). Every input is
// decoded twice — as a span of framed records, the way a read hands it
// over, and as one bare payload, which the CRC would otherwise keep the
// fuzzer away from — into an empty and into a non-empty destination.
// The decoder must never panic, must return the reference's segments,
// and must fail exactly when the reference fails, with the same error.
// An input holding a v2 payload (first byte 0x00) is not v1, and the
// reference cannot judge it: FuzzRecordV2 covers those.
func FuzzDecodeRecordRange(f *testing.F) {
	f.Add([]byte{})
	seedRecords(f, v1Records)
	prefix := syntheticSegs(2)
	f.Fuzz(func(t *testing.T, b []byte) {
		if hasV2Record(b) {
			return
		}
		for _, c := range []struct {
			name      string
			got, want func([]traj.Segment, []byte) ([]traj.Segment, error)
		}{
			{"range", decodeRecordRange, refDecodeRecordRange},
			{"payload", decodeOne, refDecodeRecordPayload},
		} {
			for _, dst := range []func() []traj.Segment{
				func() []traj.Segment { return nil },
				func() []traj.Segment { return append(make([]traj.Segment, 0, 8), prefix...) },
			} {
				got, err := c.got(dst(), b)
				want, wantErr := c.want(dst(), b)
				if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, reference %v", c.name, err, wantErr)
				}
				if !segsEqual(got, want) {
					t.Fatalf("%s: %d segments, reference %d", c.name, len(got), len(want))
				}
			}
		}
	})
}

// seedRecords adds encode's records of syntheticSegs and of a simplified
// trajectory of every gen preset to f's corpus: each payload on its own,
// and each batch's payloads framed into one span, chained if encode
// chains.
func seedRecords(f *testing.F, encode recordEncoder) {
	seed := func(segs []traj.Segment, chunk int) {
		var span []byte
		var c chain
		for off := 0; off < len(segs); off += chunk {
			var payload []byte
			payload, c = encode(nil, segs[off:min(off+chunk, len(segs))], c)
			f.Add(payload)
			span = enc.AppendFrame(span, payload)
		}
		f.Add(span)
	}
	seed(syntheticSegs(40), 16)
	for i, p := range gen.Presets {
		seed(simplified(f, p, 600, uint64(70+i)), 32)
	}
}

// hasV2Record reports whether b, read as a bare payload or as a span of
// framed records, holds a v2 payload.
func hasV2Record(b []byte) bool {
	if len(b) > 0 && b[0] == recordV2 {
		return true
	}
	for off := 0; off < len(b); {
		payload, n, err := enc.Frame(b[off:], maxRecordPayload)
		if err != nil {
			return false
		}
		if len(payload) > 0 && payload[0] == recordV2 {
			return true
		}
		off += n
	}
	return false
}

// FuzzRecordV2 holds the v2 layout to its encoder. Any input, read as a
// span of framed records or as one bare payload, must decode without a
// panic. A payload the decoder accepts — of either layout — must
// re-encode (as v2) to a payload that decodes to the same segments, so
// no v2 record, and no v1 record rewritten as v2, can change a segment.
// The one exception is a coordinate float64 cannot carry at 1 cm: from
// 2^50 counts (1.1e13 m) on, the round trip of a decoded coordinate
// through quantization may land on a neighbouring count, in either
// layout; such segments must still keep their times, indexes and flags.
func FuzzRecordV2(f *testing.F) {
	f.Add([]byte{recordV2})
	seedRecords(f, v2Records)
	prefix := syntheticSegs(2)
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeRecordRange(nil, b) // must not panic
		segs, err := decodeOne(append([]traj.Segment(nil), prefix...), b)
		if err != nil {
			return
		}
		if !segsEqual(segs[:len(prefix)], prefix) {
			t.Fatalf("decoding overwrote the destination's segments")
		}
		segs = segs[len(prefix):]
		again := chainStart(segs)
		back, err := decodeOne(nil, again)
		if err != nil {
			t.Fatalf("re-encoded payload %x does not decode: %v", again, err)
		}
		if len(back) != len(segs) {
			t.Fatalf("re-encoded payload decodes to %d segments, want %d", len(back), len(segs))
		}
		const exact = 1 << 50 * quantXY
		for i, s := range segs {
			r := back[i]
			if math.Abs(s.Start.X) < exact && math.Abs(s.Start.Y) < exact &&
				math.Abs(s.End.X) < exact && math.Abs(s.End.Y) < exact {
				if r != s {
					t.Fatalf("segment %d re-decodes as %+v, want %+v", i, r, s)
				}
				continue
			}
			if r.Start.T != s.Start.T || r.End.T != s.End.T || r.StartIdx != s.StartIdx || r.EndIdx != s.EndIdx ||
				r.VirtualStart != s.VirtualStart || r.VirtualEnd != s.VirtualEnd {
				t.Fatalf("segment %d re-decodes as %+v, want %+v", i, r, s)
			}
		}
	})
}
