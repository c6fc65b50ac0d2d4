package faults

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	orig := GenerateMapSparse(refGeom, 32, 0.001, 77)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Total != orig.Total || got.Geom != orig.Geom || got.WordBits != orig.WordBits {
		t.Fatalf("header mismatch: %+v vs %+v", got, orig)
	}
	for i := range orig.Blocks {
		if got.Blocks[i] != orig.Blocks[i] {
			t.Fatalf("block %d differs after round trip", i)
		}
	}
}

func TestReadRejectsCorruptInputs(t *testing.T) {
	orig := GenerateMapSparse(refGeom, 32, 0.001, 78)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.String()

	cases := map[string]string{
		"garbage":       "not json",
		"wrong version": strings.Replace(valid, `"version":1`, `"version":9`, 1),
		"bad wordbits":  strings.Replace(valid, `"wordBits":32`, `"wordBits":7`, 1),
		"bad total":     strings.Replace(valid, `"total":`, `"total":9`, 1),
	}
	for name, body := range cases {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("%s: Read accepted corrupt input", name)
		}
	}
	// A block with more faulty cells than cells, total kept consistent.
	over := NewEmpty(refGeom, 32)
	over.Blocks[0].Cells = refGeom.CellsPerBlock() + 1
	over.Total = over.Blocks[0].Cells
	var ob bytes.Buffer
	if err := over.Write(&ob); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&ob); err == nil {
		t.Error("Read accepted a block with more faulty cells than cells")
	}
	// Truncated block list.
	short := strings.Replace(valid, `"total"`, `"totalx"`, 1) // unknown key, total=0 then
	if _, err := Read(strings.NewReader(short)); err == nil && orig.Total != 0 {
		t.Error("missing total should fail the consistency check")
	}
}

func TestRoundTripPreservesSchemeDecisions(t *testing.T) {
	orig := GenerateMapSparse(refGeom, 32, 0.002, 79)
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.FaultyBlocks() != orig.FaultyBlocks() {
		t.Error("faulty block count changed across serialization")
	}
	if got.CapacityFraction() != orig.CapacityFraction() {
		t.Error("capacity changed across serialization")
	}
}
