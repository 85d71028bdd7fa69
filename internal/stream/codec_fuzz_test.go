package stream

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
)

// addWithTruncations seeds f with data and every proper prefix of it that
// cuts through its structure (header, body, trailing checksum): the shapes
// a torn write leaves on disk.
func addWithTruncations(f *testing.F, data []byte) {
	f.Add(data)
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 5, len(data) - 1} {
		if cut >= 0 && cut < len(data) {
			f.Add(data[:cut])
		}
	}
}

// FuzzDecodeManifest feeds arbitrary bytes to the MANIFEST decoder, both
// as a whole file and as a JSON body behind a header carrying its correct
// checksum (so mutations reach the body validation, not just the CRC). It
// must never panic, and any manifest it accepts must survive a re-encode:
// the re-encoded bytes decode to the same value.
func FuzzDecodeManifest(f *testing.F) {
	for _, m := range []*manifest{
		{N: 1, SegmentSize: 1, FirstDelete: -1},
		{N: 200, SegmentSize: 4, Version: 8, FirstDelete: 5, Segments: []manifestSegment{{Start: 0, Count: 4}, {Start: 4, Count: 4}}},
	} {
		data, err := encodeManifest(m)
		if err != nil {
			f.Fatal(err)
		}
		addWithTruncations(f, data)
		f.Add(data[bytes.IndexByte(data, '\n')+1:]) // the bare JSON body
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		header := fmt.Appendf(nil, "streamcount-manifest v%d crc32c=%08x\n", manifestFormatVersion, crc32.Checksum(data, crcTable))
		for _, in := range [][]byte{data, append(header, data...)} {
			checkManifestRoundTrip(t, in)
		}
	})
}

func checkManifestRoundTrip(t *testing.T, data []byte) {
	m, err := decodeManifest(data)
	if err != nil {
		return
	}
	again, err := encodeManifest(m)
	if err != nil {
		t.Fatalf("accepted manifest %+v does not re-encode: %v", m, err)
	}
	m2, err := decodeManifest(again)
	if err != nil {
		t.Fatalf("re-encoded manifest %q rejected: %v", again, err)
	}
	if !reflect.DeepEqual(m, m2) {
		t.Fatalf("round trip changed the manifest: %+v -> %+v", m, m2)
	}
}

// FuzzDecodeReceiptRecs feeds arbitrary bytes to the receipt-log decoder.
// It must never panic, its valid-prefix length must lie within the input,
// and re-encoding the records it returns must reproduce that prefix
// byte for byte.
func FuzzDecodeReceiptRecs(f *testing.F) {
	var log []byte
	for _, r := range []receiptRec{
		{key: "a", start: 0, end: 3},
		{key: "retry-0123456789abcdef", start: 3, end: 4},
		{key: "", start: 4, end: 100},
	} {
		log = appendReceiptRec(log, r)
	}
	addWithTruncations(f, log)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, prefix := decodeReceiptRecs(data)
		if prefix < 0 || prefix > int64(len(data)) {
			t.Fatalf("prefix %d outside [0, %d]", prefix, len(data))
		}
		var again []byte
		for _, r := range recs {
			again = appendReceiptRec(again, r)
		}
		if !bytes.Equal(again, data[:prefix]) {
			t.Fatalf("%d records re-encode to %d bytes, want the %d-byte valid prefix", len(recs), len(again), prefix)
		}
	})
}
