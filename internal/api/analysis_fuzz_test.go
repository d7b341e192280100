package api

import (
	"context"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/matrix"
	"repro/internal/patterns"
)

// maxFuzzHosts bounds the side of a fuzzed matrix.
const maxFuzzHosts = 12

// decodeFuzzMatrix turns bytes into a square matrix: the first byte
// picks the side n ≤ maxFuzzHosts, then one byte per cell, row-major.
// A cell byte below 160 is an empty cell, 160–239 a small count
// (1–80), 240–249 a 32-bit count read from the next four bytes, and
// 250–255 a count up to 2⁶³−1 read from the next eight. Missing bytes
// read as zero.
func decodeFuzzMatrix(data []byte) [][]int {
	next := func(k int) []byte {
		out := make([]byte, k)
		copy(out, data)
		data = data[min(k, len(data)):]
		return out
	}
	n := 1 + int(next(1)[0])%maxFuzzHosts
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, n)
		for j := range rows[i] {
			switch b := next(1)[0]; {
			case b >= 250:
				rows[i][j] = int(binary.BigEndian.Uint64(next(8)) >> 1)
			case b >= 240:
				rows[i][j] = int(binary.BigEndian.Uint32(next(4)))
			case b >= 160:
				rows[i][j] = int(b) - 159
			}
		}
	}
	return rows
}

// encodeFuzzMatrix is the seed-side inverse of decodeFuzzMatrix for
// a square matrix of non-negative cells below 2⁶³.
func encodeFuzzMatrix(rows [][]int) []byte {
	out := []byte{byte(len(rows) - 1)}
	for _, row := range rows {
		for _, v := range row {
			switch {
			case v == 0:
				out = append(out, 0)
			case v <= 80:
				out = append(out, byte(159+v))
			default:
				out = append(out, 250)
				out = binary.BigEndian.AppendUint64(out, uint64(v)<<1)
			}
		}
	}
	return out
}

// FuzzAnalyzeMatrix drives the aggregate analysis with arbitrary
// small matrices, large cells included, and checks that it never
// panics; that a matrix the posted-matrix path accepts reads its
// exact packet total with every confidence in [0,1] and the mixture
// sorted strongest first, while any other is rejected as invalid;
// and that Dense and CSR inputs give deeply equal readings.
func FuzzAnalyzeMatrix(f *testing.F) {
	f.Add(encodeFuzzMatrix(overflowMatrix))
	f.Add(encodeFuzzMatrix([][]int{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}}))
	f.Add(encodeFuzzMatrix([][]int{{4, 0, 0, 0}, {0, 9, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 1}}))
	f.Add(encodeFuzzMatrix([][]int{{7}}))
	for _, e := range patterns.ByFamily(patterns.FamilyTopology) {
		m, _, err := e.Build()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeFuzzMatrix(m.ToRows()))
	}

	svc := New()
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := decodeFuzzMatrix(data)
		dense := matrix.MustFromRows(rows)
		zones, err := zonesFor(dense.Rows(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		agg := analyzeMatrix(dense, zones)
		if csrAgg := analyzeMatrix(matrix.FromDense(dense).ToCSR(), zones); !reflect.DeepEqual(agg, csrAgg) {
			t.Fatalf("Dense and CSR readings differ:\ndense %+v\n  csr %+v", agg, csrAgg)
		}

		valid, sum := true, 0
		for _, row := range rows {
			for _, v := range row {
				valid = valid && v <= MaxCellPackets
				sum += v
			}
		}
		res, err := svc.Analyze(context.Background(), AnalyzeRequest{Matrix: rows})
		if !valid {
			if !errors.Is(err, ErrInvalidRequest) {
				t.Fatalf("cells above MaxCellPackets: err = %v, want ErrInvalidRequest", err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Aggregate, agg) {
			t.Fatalf("posted-matrix readings differ from analyzeMatrix:\n got %+v\nwant %+v", res.Aggregate, agg)
		}
		if agg.Profile.Packets != sum {
			t.Fatalf("packets = %d, want the cell sum %d", agg.Profile.Packets, sum)
		}
		readings := append([]Reading{agg.Attack}, agg.Mixture...)
		if agg.Behavior != nil {
			readings = append(readings, *agg.Behavior)
		}
		for _, r := range readings {
			if !(r.Confidence >= 0 && r.Confidence <= 1) {
				t.Fatalf("%s confidence %v outside [0,1]", r.Label, r.Confidence)
			}
		}
		for k := 1; k < len(agg.Mixture); k++ {
			if agg.Mixture[k].Confidence > agg.Mixture[k-1].Confidence {
				t.Fatalf("mixture not sorted strongest first: %+v", agg.Mixture)
			}
		}
	})
}
