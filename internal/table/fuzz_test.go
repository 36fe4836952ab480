package table

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/treelet"
	"repro/internal/u128"
)

// FuzzPackedRecordRoundTrip drives the delta/varint codec with
// fuzzer-derived pair sets: the raw bytes are chopped into (key, count)
// pairs, canonicalized, encoded, and the packed record must decode back to
// exactly the input and answer point queries consistently. Run with
//
//	go test -fuzz=Fuzz -fuzztime=10s ./internal/table
func FuzzPackedRecordRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	seed := make([]byte, 20*(blockSize+3))
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Derive a canonical pair set: 20 bytes per entry — 8 key bytes
		// (masked to the 46-bit Colored layout), 8+4 count bytes (the
		// short tail makes >64-bit counts reachable but rare, like real
		// tables).
		m := make(map[treelet.Colored]u128.Uint128)
		for len(data) >= 20 {
			key := treelet.Colored(binary.LittleEndian.Uint64(data) & (1<<46 - 1))
			cnt := u128.Uint128{
				Lo: binary.LittleEndian.Uint64(data[8:]),
				Hi: uint64(binary.LittleEndian.Uint32(data[16:])),
			}
			m[key] = cnt
			data = data[20:]
		}
		var p Pairs
		fillPairs(&p, m)
		enc := AppendRecord(nil, &p)
		if len(m) == 0 {
			if len(enc) != 0 {
				t.Fatalf("empty input encoded to %d bytes", len(enc))
			}
			return
		}
		rec, err := ViewRecord(enc)
		if err != nil {
			t.Fatalf("ViewRecord: %v", err)
		}
		if rec.Bytes() != int64(len(enc)) {
			t.Fatalf("view spans %d bytes, encoder wrote %d", rec.Bytes(), len(enc))
		}
		if err := rec.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}
		// Trailing garbage must not change the view (records are sliced
		// out of arenas, so buffers routinely extend past the record).
		recPad, err := ViewRecord(append(append([]byte{}, enc...), 0xAA, 0x55))
		if err != nil {
			t.Fatalf("ViewRecord with padding: %v", err)
		}
		if recPad.Bytes() != rec.Bytes() || recPad.Len() != rec.Len() {
			t.Fatal("padding changed the record view")
		}
		// Full round trip through the cursor.
		var got Pairs
		rec.AppendPairs(&got)
		if len(got.Keys) != len(p.Keys) {
			t.Fatalf("decoded %d pairs, want %d", len(got.Keys), len(p.Keys))
		}
		total := u128.Zero
		for i := range p.Keys {
			if got.Keys[i] != p.Keys[i] || got.Counts[i] != p.Counts[i] {
				t.Fatalf("pair %d: (%v,%v) != (%v,%v)", i, got.Keys[i], got.Counts[i], p.Keys[i], p.Counts[i])
			}
			total = total.Add(p.Counts[i])
		}
		if rec.Total() != total {
			t.Fatalf("Total %v != sum %v", rec.Total(), total)
		}
		// Point queries against the map.
		for k, want := range m {
			if gotC := rec.Count(k); gotC != want {
				t.Fatalf("Count(%v) = %v, want %v", k, gotC, want)
			}
		}
		// Re-encoding the decoded pairs must be byte-identical (canonical
		// encoding — the property table byte-identity tests lean on).
		if !bytes.Equal(enc, AppendRecord(nil, &got)) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}
