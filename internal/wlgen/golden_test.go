package wlgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cliffguard/internal/datagen"
)

// presetDigests are SHA-256 digests of every preset's generated output at
// seed 1: each month's items in order (SQL text, weight bits, timestamp and
// zone offset) and the achieved drift of each month. Query IDs are left
// out: they come from a process-wide counter. A change to the generator
// that moves any of these must be deliberate, since the checked-in
// benchmark baselines and goldens are generated from the presets.
var presetDigests = map[string]string{
	"R1": "968c56e6027ddd7f58a4cb1861a88e98e8dad9b3b1fceeb2a598f7012a1eee6d",
	"S1": "25ea90cc1089b7b2dea64d64b141849d83a4be02960d1625336f150d99c7bf13",
	"S2": "64769c6d8033b8ad87a2cfb3c4c29f4b61f7416d00da4c4aa2579fc51817f111",
}

// setDigest hashes a generated set as presetDigests describes.
func setDigest(set *Set) string {
	h := sha256.New()
	var buf [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, m := range set.Months {
		num(uint64(m.Len()))
		for _, it := range m.Items {
			h.Write([]byte(it.Q.SQL))
			h.Write([]byte{0})
			num(math.Float64bits(it.Weight))
			_, off := it.Q.Timestamp.Zone()
			num(uint64(it.Q.Timestamp.UnixNano()))
			num(uint64(off))
		}
	}
	for _, d := range set.AchievedDrift {
		num(math.Float64bits(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPresetsBitIdentical regenerates every preset and compares its digest
// with the recorded one.
func TestPresetsBitIdentical(t *testing.T) {
	s := datagen.Warehouse(1)
	for _, cfg := range []*Config{R1Config(s, 1), S1Config(s, 1), S2Config(s, 1)} {
		set, err := cfg.Generate()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := setDigest(set), presetDigests[cfg.Name]; got != want {
			t.Errorf("%s: digest %s, want %s", cfg.Name, got, want)
		}
	}
}
