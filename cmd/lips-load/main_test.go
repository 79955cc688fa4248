package main

import (
	"math/rand"
	"strconv"
	"testing"
)

// TestTenantPickerRefusesBadWeights: every malformed -tenant-weights is a
// usage error, including a list whose sum overflows int, which would
// otherwise reach rand.Intn as a negative bound and panic.
func TestTenantPickerRefusesBadWeights(t *testing.T) {
	for _, weights := range []string{
		strconv.Itoa(int(^uint(0)>>1)) + ",1", // sums past the largest int
		"0,1",
		"2,-1",
		"1.5,1",
		"a",
		"1,,1",
	} {
		if _, err := tenantPicker(4, weights); err == nil {
			t.Errorf("-tenant-weights %q: accepted", weights)
		}
	}
}

// TestTenantPickerFollowsWeights: draws land on each tenant in proportion
// to its weight, and without weights uniformly over the n tenants.
func TestTenantPickerFollowsWeights(t *testing.T) {
	const draws = 80000
	for _, tc := range []struct {
		n       int
		weights string
		want    []float64
	}{
		{4, "", []float64{0.25, 0.25, 0.25, 0.25}},
		{4, "5,1,1,1", []float64{5. / 8, 1. / 8, 1. / 8, 1. / 8}},
		{2, "1, 3", []float64{0.25, 0.75}},
	} {
		pick, err := tenantPicker(tc.n, tc.weights)
		if err != nil {
			t.Fatalf("-tenant-weights %q: %v", tc.weights, err)
		}
		counts := make([]int, len(tc.want))
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < draws; i++ {
			counts[pick(rng)]++
		}
		for i, want := range tc.want {
			// About six standard deviations of a binomial share at this count.
			if got := float64(counts[i]) / draws; got < want-0.01 || got > want+0.01 {
				t.Errorf("-tenant-weights %q: tenant %d drew %.4f, want %.4f", tc.weights, i, got, want)
			}
		}
	}
}
