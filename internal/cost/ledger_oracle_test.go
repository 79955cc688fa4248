package cost

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The map-keyed ledger the indexed Ledger replaced, kept verbatim as the
// oracle TestLedgerMatchesMapOracle drives beside it.

// mapLedger accumulates dollar charges by category, by job, and by
// tenant×category. A mapLedger is not safe for concurrent use; each
// simulation owns one.
type mapLedger struct {
	byCategory map[Category]Money
	byJob      map[string]Money
	byTenant   map[string]map[Category]Money
	noJob      Money // charges recorded with an empty job key
	total      Money
}

// newMapLedger returns an empty ledger.
func newMapLedger() *mapLedger {
	return &mapLedger{
		byCategory: make(map[Category]Money),
		byJob:      make(map[string]Money),
		byTenant:   make(map[string]map[Category]Money),
	}
}

// ChargeTenant records amount against the category, job, and owning
// tenant. An empty tenant maps to UnattributedTenant so every microcent
// lands in exactly one tenant bucket and the chargeback sum stays
// conserved against the category totals.
func (l *mapLedger) ChargeTenant(cat Category, job, tenant string, amount Money) {
	if amount < 0 {
		panic(fmt.Sprintf("cost: negative charge %v for %s/%s", amount, cat, job))
	}
	if tenant == "" {
		tenant = UnattributedTenant
	}
	l.byCategory[cat] += amount
	if job != "" {
		l.byJob[job] += amount
	} else {
		l.noJob += amount
	}
	tc := l.byTenant[tenant]
	if tc == nil {
		tc = make(map[Category]Money)
		l.byTenant[tenant] = tc
	}
	tc[cat] += amount
	l.total += amount
}

// Total returns the grand total.
func (l *mapLedger) Total() Money { return l.total }

// Category returns the total for one category.
func (l *mapLedger) Category(cat Category) Money { return l.byCategory[cat] }

// Job returns the total charged to one job.
func (l *mapLedger) Job(job string) Money { return l.byJob[job] }

// Unattributed returns the money charged with an empty job key.
func (l *mapLedger) Unattributed() Money { return l.noJob }

// Tenants returns the tenant names seen, sorted.
func (l *mapLedger) Tenants() []string {
	names := make([]string, 0, len(l.byTenant))
	for n := range l.byTenant {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TenantCategory returns the total charged to one tenant in one category.
func (l *mapLedger) TenantCategory(tenant string, cat Category) Money {
	return l.byTenant[tenant][cat]
}

// TenantTotal returns the total charged to one tenant across categories.
func (l *mapLedger) TenantTotal(tenant string) Money {
	var sum Money
	for _, m := range l.byTenant[tenant] {
		sum += m
	}
	return sum
}

// TenantBreakdown returns a copy of one tenant's per-category charges.
func (l *mapLedger) TenantBreakdown(tenant string) map[Category]Money {
	out := make(map[Category]Money, len(l.byTenant[tenant]))
	for c, m := range l.byTenant[tenant] {
		out[c] = m
	}
	return out
}

// Reconcile checks the ledger's conservation invariants to the exact
// microcent: tenant charges sum to the category totals per category,
// job charges plus the unattributed remainder sum to the grand total,
// and the category totals sum to the grand total. It returns nil when
// the books balance.
func (l *mapLedger) Reconcile() error {
	perCat := make(map[Category]Money)
	for _, tc := range l.byTenant {
		for c, m := range tc {
			perCat[c] += m
		}
	}
	for c, want := range l.byCategory {
		if got := perCat[c]; got != want {
			return fmt.Errorf("cost: tenant sum for %s = %d uc, category total = %d uc", c, got, want)
		}
	}
	for c, got := range perCat {
		if l.byCategory[c] != got {
			return fmt.Errorf("cost: tenant sum for %s = %d uc, category total = %d uc", c, got, l.byCategory[c])
		}
	}
	var catSum, jobSum Money
	for _, m := range l.byCategory {
		catSum += m
	}
	if catSum != l.total {
		return fmt.Errorf("cost: category sum = %d uc, total = %d uc", catSum, l.total)
	}
	for _, m := range l.byJob {
		jobSum += m
	}
	if jobSum+l.noJob != l.total {
		return fmt.Errorf("cost: job sum %d uc + unattributed %d uc != total %d uc", jobSum, l.noJob, l.total)
	}
	return nil
}

// String summarises the ledger by category.
func (l *mapLedger) String() string {
	cats := make([]string, 0, len(l.byCategory))
	for c := range l.byCategory {
		cats = append(cats, string(c))
	}
	sort.Strings(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "total %v", l.total)
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%v", c, l.byCategory[Category(c)])
	}
	return b.String()
}

// ledgerOp is one booking of a random sequence: by name through
// ChargeTenant, or through a Ref resolved before the charge and reused
// afterwards, as the simulator books.
type ledgerOp struct {
	cat         Category
	job, tenant string
	amount      Money
	byRef       bool
}

// randomLedgerOps draws n bookings over the five categories, one outside
// them, empty and repeated job and tenant names, the reserved tenant by
// name, and zero amounts.
func randomLedgerOps(rng *rand.Rand, n int) []ledgerOp {
	cats := append(append([]Category(nil), Categories...), "mystery", "")
	jobs := []string{"", "j0", "j1", "j2", "shared", "shared"}
	tenants := []string{"", "alice", "bob", UnattributedTenant, "carol"}
	ops := make([]ledgerOp, n)
	for i := range ops {
		amount := Money(rng.Int63n(1_000_000))
		if rng.Intn(4) == 0 {
			amount = 0
		}
		ops[i] = ledgerOp{
			cat:    cats[rng.Intn(len(cats))],
			job:    jobs[rng.Intn(len(jobs))],
			tenant: tenants[rng.Intn(len(tenants))],
			amount: amount,
			byRef:  rng.Intn(2) == 0,
		}
	}
	return ops
}

// ledgerDiff books ops into both ledgers and returns the first accessor
// on which they disagree, or "".
func ledgerDiff(ops []ledgerOp) string {
	got, want := NewLedger(), newMapLedger()
	refs := make(map[[2]string]Ref)
	for _, op := range ops {
		want.ChargeTenant(op.cat, op.job, op.tenant, op.amount)
		if !op.byRef {
			got.ChargeTenant(op.cat, op.job, op.tenant, op.amount)
			continue
		}
		k := [2]string{op.job, op.tenant}
		r, ok := refs[k]
		if !ok {
			r = got.Resolve(op.job, op.tenant)
			refs[k] = r
		}
		got.ChargeRef(op.cat, r, op.amount)
	}
	// A tenant resolved but never charged must not show.
	got.Resolve("resolved-only", "dave")

	if g, w := got.Total(), want.Total(); g != w {
		return fmt.Sprintf("Total %d, oracle %d", g, w)
	}
	if g, w := got.Unattributed(), want.Unattributed(); g != w {
		return fmt.Sprintf("Unattributed %d, oracle %d", g, w)
	}
	cats := append(append([]Category(nil), Categories...), "mystery", "", "never")
	for _, c := range cats {
		if g, w := got.Category(c), want.Category(c); g != w {
			return fmt.Sprintf("Category(%q) %d, oracle %d", c, g, w)
		}
	}
	for _, j := range []string{"", "j0", "j1", "j2", "shared", "resolved-only", "nobody"} {
		if g, w := got.Job(j), want.Job(j); g != w {
			return fmt.Sprintf("Job(%q) %d, oracle %d", j, g, w)
		}
	}
	if g, w := got.Tenants(), want.Tenants(); !slices.Equal(g, w) {
		return fmt.Sprintf("Tenants %v, oracle %v", g, w)
	}
	for _, tn := range []string{"", "alice", "bob", UnattributedTenant, "carol", "dave", "nobody"} {
		if g, w := got.TenantTotal(tn), want.TenantTotal(tn); g != w {
			return fmt.Sprintf("TenantTotal(%q) %d, oracle %d", tn, g, w)
		}
		if g, w := got.TenantBreakdown(tn), want.TenantBreakdown(tn); !maps.Equal(g, w) {
			return fmt.Sprintf("TenantBreakdown(%q) %v, oracle %v", tn, g, w)
		}
		for _, c := range cats {
			if g, w := got.TenantCategory(tn, c), want.TenantCategory(tn, c); g != w {
				return fmt.Sprintf("TenantCategory(%q, %q) %d, oracle %d", tn, c, g, w)
			}
		}
	}
	if g, w := got.String(), want.String(); g != w {
		return fmt.Sprintf("String %q, oracle %q", g, w)
	}
	if g, w := got.Reconcile(), want.Reconcile(); (g == nil) != (w == nil) {
		return fmt.Sprintf("Reconcile %v, oracle %v", g, w)
	}
	return ""
}

// TestLedgerMatchesMapOracle drives seeded random booking sequences
// through the indexed Ledger and the map-keyed oracle and checks every
// accessor after each prefix length a failure could hide in. A failure
// reports its seed and the shortest failing prefix.
func TestLedgerMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		ops := randomLedgerOps(rand.New(rand.NewSource(seed)), 1+int(seed%60))
		if ledgerDiff(ops) == "" {
			continue
		}
		n := 1
		for ledgerDiff(ops[:n]) == "" {
			n++
		}
		t.Fatalf("seed %d: after %d bookings %+v: %s", seed, n, ops[:n], ledgerDiff(ops[:n]))
	}
}

// TestLedgerZeroChargeIsSeen pins what the maps did for free: a zero
// booking lists its tenant and names its category, in the tenant's
// breakdown and in String.
func TestLedgerZeroChargeIsSeen(t *testing.T) {
	l := NewLedger()
	l.ChargeTenant(CatPlacement, "j", "erin", 0)
	if got := l.Tenants(); !slices.Equal(got, []string{"erin"}) {
		t.Errorf("Tenants = %v, want [erin]", got)
	}
	if bd := l.TenantBreakdown("erin"); len(bd) != 1 || bd[CatPlacement] != 0 {
		t.Errorf("breakdown = %v, want placement=0", bd)
	}
	if got, want := l.String(), "total $0.00 placement=$0.00"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
