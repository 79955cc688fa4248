package lp

import "testing"

// WithPricingOracle attaches the full-scan reference pricer to opts for
// tests that live outside the package (they build their LPs with
// internal/core, which imports this one). steps reports how many pricing
// steps it has checked.
func WithPricingOracle(t testing.TB, label string, opts Options) (hooked Options, steps func() int) {
	hooked, o := withOracle(t, label, opts)
	return hooked, func() int { return o.steps }
}
