package journal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseWAL hands the WAL frame decoder arbitrary bytes, seeded with a
// real WAL — the market's checked-in parent journal — and with that WAL
// truncated and bit-flipped along its length. Whatever the bytes, parseWAL
// must not panic and must end in one of two ways: an error (a foreign
// header), or payloads that re-frame to exactly the prefix it calls good,
// with a reason for every byte past it. Recovery truncates the file to
// that prefix and serves those payloads, so a decoder that dropped,
// altered or invented a byte would silently recover a different book.
func FuzzParseWAL(f *testing.F) {
	wal, err := os.ReadFile(filepath.Join("..", "market", "testdata", "parent_journal", "wal"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wal)
	for cut := 0; cut < len(wal); cut += 13 {
		f.Add(wal[:cut])
	}
	for bit := 0; bit < 8*len(wal); bit += 97 {
		flipped := bytes.Clone(wal)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		firstSeq, payloads, goodLen, reason, _, err := parseWAL(data)
		if err != nil {
			if len(data) < walHeaderSize || bytes.Equal(data[:len(walMagic)], walMagic) {
				t.Fatalf("parseWAL refused a WAL with its magic (or too short for one): %v", err)
			}
			return
		}
		if goodLen < 0 || goodLen > int64(len(data)) {
			t.Fatalf("good prefix %d of %d bytes", goodLen, len(data))
		}
		if goodLen < walHeaderSize { // Open rebuilds such a WAL empty
			if len(payloads) != 0 || reason == "" {
				t.Fatalf("%d payloads behind a torn header, reason %q", len(payloads), reason)
			}
			return
		}
		if (reason == "") != (goodLen == int64(len(data))) {
			t.Fatalf("good prefix %d of %d bytes, reason %q", goodLen, len(data), reason)
		}
		var hdr [walHeaderSize]byte
		copy(hdr[:], walMagic)
		binary.LittleEndian.PutUint64(hdr[len(walMagic):], firstSeq)
		reframed := hdr[:]
		for _, p := range payloads {
			reframed = appendFrame(reframed, p)
		}
		if !bytes.Equal(reframed, data[:goodLen]) {
			t.Fatalf("%d payloads re-frame to %d bytes that differ from the %d-byte good prefix", len(payloads), len(reframed), goodLen)
		}
	})
}
