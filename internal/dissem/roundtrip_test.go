package dissem

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"testing"

	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// Randomized bundle round-trip property, fixed seeds: for any bundle,
// Encode → DecodeBundle → Encode is byte-identical.

func randBundle(rng *stats.RNG, epoch uint64) *Bundle {
	randPath := func() receipt.PathID {
		return receipt.PathID{
			Key: packet.PathKey{
				Src: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
				Dst: packet.MakePrefix(byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), byte(rng.Uint32()), rng.Intn(33)),
			},
			PrevHOP:   receipt.HOPID(rng.Uint32()),
			NextHOP:   receipt.HOPID(rng.Uint32()),
			MaxDiffNS: int64(rng.Uint64()),
		}
	}
	b := &Bundle{
		Origin: receipt.HOPID(rng.Uint32()),
		Seq:    rng.Uint64(),
		Epoch:  epoch,
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		sr := receipt.SampleReceipt{Path: randPath()}
		for j, m := 0, rng.Intn(10); j < m; j++ {
			sr.Samples = append(sr.Samples, receipt.SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint64())})
		}
		b.Samples = append(b.Samples, sr)
	}
	for i, n := 0, rng.Intn(5); i < n; i++ {
		ar := receipt.AggReceipt{
			Path:   randPath(),
			Agg:    receipt.AggID{First: rng.Uint64(), Last: rng.Uint64()},
			PktCnt: rng.Uint64(),
		}
		for j, m := 0, rng.Intn(4); j < m; j++ {
			ar.AggTrans = append(ar.AggTrans, receipt.SampleRecord{PktID: rng.Uint64(), TimeNS: int64(rng.Uint64())})
		}
		b.Aggs = append(b.Aggs, ar)
	}
	return b
}

// TestBundleRoundTripProperty: 500 random epoch-tagged bundles
// round-trip byte-identically through the v2 codec.
func TestBundleRoundTripProperty(t *testing.T) {
	rng := stats.NewRNG(0xabc1)
	for i := 0; i < 500; i++ {
		b := randBundle(rng, rng.Uint64())
		enc := b.Encode()
		got, err := DecodeBundle(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode failed: %v", i, err)
		}
		re := got.Encode()
		if !bytes.Equal(re, enc) {
			t.Fatalf("iteration %d: v2 encode→decode→encode not byte-identical", i)
		}
	}
}

// TestDecodeBundleRejectsV1: the retired pre-epoch layout (magic
// "VPM1", no epoch field) is corrupt input, signed or not — an origin
// cannot serve one interval under two layouts and call the byte
// difference a migration.
func TestDecodeBundleRejectsV1(t *testing.T) {
	// v1 header: magic[4] origin[4] seq[8] nSamples[4] nAggs[4], no
	// receipts — once a well-formed empty bundle.
	v1 := make([]byte, 24)
	copy(v1, "VPM1")
	binary.LittleEndian.PutUint32(v1[4:8], 3)
	binary.LittleEndian.PutUint64(v1[8:16], 9)
	if _, err := DecodeBundle(v1); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("v1 payload decoded: err = %v, want ErrCorruptBundle", err)
	}

	var seed [32]byte
	seed[0] = 9
	signer := NewSigner(seed)
	signed := SignedBundle{Payload: v1, Sig: ed25519.Sign(signer.priv, v1)}
	if _, err := Verify(signer.Public(), 3, signed); !errors.Is(err, ErrCorruptBundle) {
		t.Fatalf("signed v1 payload verified: err = %v, want ErrCorruptBundle", err)
	}
}
