package cost

import (
	"fmt"
	"sort"
	"strings"
)

// Category classifies a ledger charge.
type Category string

// Standard charge categories used by the simulator.
const (
	CatCPU         Category = "cpu"         // task execution CPU time
	CatTransfer    Category = "transfer"    // runtime store→machine data movement
	CatPlacement   Category = "placement"   // store→store data relocation (x^d)
	CatSpeculative Category = "speculative" // CPU burnt by killed speculative copies
	CatFault       Category = "fault"       // CPU wasted by crash-killed attempts and re-replication traffic
)

// Categories lists every standard category in canonical order.
var Categories = []Category{CatCPU, CatTransfer, CatPlacement, CatSpeculative, CatFault}

// UnattributedTenant is the reserved tenant name that absorbs charges
// carrying no owner: background replication, plan-driven block moves,
// and jobs submitted without a user. The underscore keeps it out of the
// namespace real tenants use.
const UnattributedTenant = "_system"

// Ledger accumulates dollar charges by category, by job, and by
// tenant×category. A Ledger is not safe for concurrent use; each
// simulation owns one.
type Ledger struct {
	byCategory map[Category]Money
	byJob      map[string]Money
	byTenant   map[string]map[Category]Money
	noJob      Money // charges recorded with an empty job key
	total      Money
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		byCategory: make(map[Category]Money),
		byJob:      make(map[string]Money),
		byTenant:   make(map[string]map[Category]Money),
	}
}

// ChargeTenant records amount against the category, job, and owning
// tenant. An empty tenant maps to UnattributedTenant so every microcent
// lands in exactly one tenant bucket and the chargeback sum stays
// conserved against the category totals.
func (l *Ledger) ChargeTenant(cat Category, job, tenant string, amount Money) {
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
func (l *Ledger) Total() Money { return l.total }

// Category returns the total for one category.
func (l *Ledger) Category(cat Category) Money { return l.byCategory[cat] }

// Job returns the total charged to one job.
func (l *Ledger) Job(job string) Money { return l.byJob[job] }

// Unattributed returns the money charged with an empty job key.
func (l *Ledger) Unattributed() Money { return l.noJob }

// Tenants returns the tenant names seen, sorted.
func (l *Ledger) Tenants() []string {
	names := make([]string, 0, len(l.byTenant))
	for n := range l.byTenant {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TenantCategory returns the total charged to one tenant in one category.
func (l *Ledger) TenantCategory(tenant string, cat Category) Money {
	return l.byTenant[tenant][cat]
}

// TenantTotal returns the total charged to one tenant across categories.
func (l *Ledger) TenantTotal(tenant string) Money {
	var sum Money
	for _, m := range l.byTenant[tenant] {
		sum += m
	}
	return sum
}

// TenantBreakdown returns a copy of one tenant's per-category charges.
func (l *Ledger) TenantBreakdown(tenant string) map[Category]Money {
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
func (l *Ledger) Reconcile() error {
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
func (l *Ledger) String() string {
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
