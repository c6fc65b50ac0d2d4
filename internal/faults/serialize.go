package faults

import (
	"encoding/json"
	"fmt"
	"io"

	"vccmin/internal/geom"
)

// Serialization: fault maps are boot-time artifacts in the paper (built
// by the low-voltage memory test), so the tools can persist and reload
// them. The format is plain JSON of the exported structure plus a version
// tag for forward compatibility.

// fileFormat is the on-disk envelope.
type fileFormat struct {
	Version  int           `json:"version"`
	Geometry geom.Geometry `json:"geometry"`
	WordBits int           `json:"wordBits"`
	Blocks   []BlockFaults `json:"blocks"`
	Total    int           `json:"total"`
}

const formatVersion = 1

// Write serializes the map as JSON.
func (m *Map) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(fileFormat{
		Version:  formatVersion,
		Geometry: m.Geom,
		WordBits: m.WordBits,
		Blocks:   m.Blocks,
		Total:    m.Total,
	})
}

// Read deserializes a map written by Write, validating the envelope.
func Read(r io.Reader) (*Map, error) {
	var f fileFormat
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("faults: decode: %w", err)
	}
	if f.Version != formatVersion {
		return nil, fmt.Errorf("faults: unsupported format version %d", f.Version)
	}
	if err := f.Geometry.Check(); err != nil {
		return nil, fmt.Errorf("faults: bad geometry in file: %w", err)
	}
	if f.WordBits <= 0 || f.Geometry.DataBits()%f.WordBits != 0 {
		return nil, fmt.Errorf("faults: bad word size %d", f.WordBits)
	}
	if len(f.Blocks) != f.Geometry.Blocks() {
		return nil, fmt.Errorf("faults: %d block records for a %d-block geometry",
			len(f.Blocks), f.Geometry.Blocks())
	}
	m := &Map{
		Geom:     f.Geometry,
		WordBits: f.WordBits,
		Blocks:   f.Blocks,
		Total:    f.Total,
		faulty:   make([]uint64, (len(f.Blocks)+63)/64),
	}
	sum := 0
	k := f.Geometry.CellsPerBlock()
	for i, b := range m.Blocks {
		if b.Cells < 0 {
			return nil, fmt.Errorf("faults: block %d has negative cell count", i)
		}
		if b.Cells > k {
			return nil, fmt.Errorf("faults: block %d has %d faulty cells, more than its %d cells", i, b.Cells, k)
		}
		if b.Cells > 0 {
			m.faulty[i>>6] |= 1 << uint(i&63)
		}
		sum += b.Cells
	}
	if sum != m.Total {
		return nil, fmt.Errorf("faults: total %d does not match per-block sum %d", m.Total, sum)
	}
	return m, nil
}
