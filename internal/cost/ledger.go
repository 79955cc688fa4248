package cost

import (
	"fmt"
	"slices"
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

// Index returns the category's position in Categories, or -1 for any
// other category. It compares, it does not hash: the simulator's charge
// path calls it per booking.
func (c Category) Index() int {
	switch c {
	case CatCPU:
		return 0
	case CatTransfer:
		return 1
	case CatPlacement:
		return 2
	case CatSpeculative:
		return 3
	case CatFault:
		return 4
	}
	return -1
}

// UnattributedTenant is the reserved tenant name that absorbs charges
// carrying no owner: background replication, plan-driven block moves,
// and jobs submitted without a user. The underscore keeps it out of the
// namespace real tenants use.
const UnattributedTenant = "_system"

// Ledger accumulates dollar charges by category, by job, and by
// tenant×category. Every line is a slot in a dense slice: Resolve maps a
// job name and a tenant to a Ref once, and ChargeRef books by it without
// hashing a name. Categories are indexed too, the standard ones at their
// Index and any other after them in first-charge order. A Ledger is not
// safe for concurrent use; each simulation owns one.
type Ledger struct {
	cats    []Category // by category index
	byCat   []Money
	catSeen []bool // charged at least once, zero included

	jobIdx map[string]int32 // by name, read when resolving
	byJob  []Money

	tenantIdx map[string]int32 // by name, read when resolving
	tenants   []tenantLine

	noJob Money // charges recorded with an empty job key
	total Money
}

// tenantLine is one tenant's charges, by category index. A tenant is
// listed once any category is seen.
type tenantLine struct {
	name string
	by   []Money
	seen []bool
}

// Ref names one (job, tenant) pair of a Ledger: the job's line, or -1
// for the empty job key, and the tenant's line.
type Ref struct {
	job, tenant int32
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	n := len(Categories)
	return &Ledger{
		cats:      append([]Category(nil), Categories...),
		byCat:     make([]Money, n),
		catSeen:   make([]bool, n),
		jobIdx:    make(map[string]int32),
		tenantIdx: make(map[string]int32),
	}
}

// Resolve returns the Ref that books against job and tenant. Jobs that
// share a name share a line; an empty job books to the unattributed
// remainder, and an empty tenant maps to UnattributedTenant, so every
// microcent lands in exactly one tenant bucket. Resolving books nothing:
// a job or tenant shows in the ledger once a charge reaches it.
func (l *Ledger) Resolve(job, tenant string) Ref {
	r := Ref{job: -1}
	if job != "" {
		i, ok := l.jobIdx[job]
		if !ok {
			i = int32(len(l.byJob))
			l.jobIdx[job] = i
			l.byJob = append(l.byJob, 0)
		}
		r.job = i
	}
	if tenant == "" {
		tenant = UnattributedTenant
	}
	i, ok := l.tenantIdx[tenant]
	if !ok {
		i = int32(len(l.tenants))
		l.tenantIdx[tenant] = i
		l.tenants = append(l.tenants, tenantLine{
			name: tenant, by: make([]Money, len(l.cats)), seen: make([]bool, len(l.cats)),
		})
	}
	r.tenant = i
	return r
}

// ChargeTenant records amount against the category, job, and owning
// tenant by name: Resolve, then ChargeRef.
func (l *Ledger) ChargeTenant(cat Category, job, tenant string, amount Money) {
	l.ChargeRef(cat, l.Resolve(job, tenant), amount)
}

// ChargeRef records amount against the category and the resolved job
// and tenant. A zero amount still marks each as charged.
func (l *Ledger) ChargeRef(cat Category, r Ref, amount Money) {
	if amount < 0 {
		job := ""
		for name, i := range l.jobIdx {
			if i == r.job {
				job = name
			}
		}
		panic(fmt.Sprintf("cost: negative charge %v for %s/%s", amount, cat, job))
	}
	c := cat.Index()
	if c < 0 {
		c = l.otherIndex(cat)
	}
	l.byCat[c] += amount
	l.catSeen[c] = true
	if r.job >= 0 {
		l.byJob[r.job] += amount
	} else {
		l.noJob += amount
	}
	t := &l.tenants[r.tenant]
	t.by[c] += amount
	t.seen[c] = true
	l.total += amount
}

// otherIndex returns the index of a category outside Categories, adding
// it, to every tenant line too, on its first charge.
func (l *Ledger) otherIndex(cat Category) int {
	if c := l.lookup(cat); c >= 0 {
		return c
	}
	l.cats = append(l.cats, cat)
	l.byCat = append(l.byCat, 0)
	l.catSeen = append(l.catSeen, false)
	for i := range l.tenants {
		t := &l.tenants[i]
		t.by, t.seen = append(t.by, 0), append(t.seen, false)
	}
	return len(l.cats) - 1
}

// lookup returns a category's index, or -1 if it was never charged.
func (l *Ledger) lookup(cat Category) int {
	if c := cat.Index(); c >= 0 {
		return c
	}
	for c := len(Categories); c < len(l.cats); c++ {
		if l.cats[c] == cat {
			return c
		}
	}
	return -1
}

// tenant returns a tenant's line, or nil.
func (l *Ledger) tenant(name string) *tenantLine {
	if i, ok := l.tenantIdx[name]; ok {
		return &l.tenants[i]
	}
	return nil
}

// Total returns the grand total.
func (l *Ledger) Total() Money { return l.total }

// Category returns the total for one category.
func (l *Ledger) Category(cat Category) Money {
	if c := l.lookup(cat); c >= 0 {
		return l.byCat[c]
	}
	return 0
}

// Job returns the total charged to one job.
func (l *Ledger) Job(job string) Money {
	if i, ok := l.jobIdx[job]; ok {
		return l.byJob[i]
	}
	return 0
}

// Unattributed returns the money charged with an empty job key.
func (l *Ledger) Unattributed() Money { return l.noJob }

// Tenants returns the tenant names seen, sorted.
func (l *Ledger) Tenants() []string {
	names := make([]string, 0, len(l.tenants))
	for i := range l.tenants {
		if slices.Contains(l.tenants[i].seen, true) {
			names = append(names, l.tenants[i].name)
		}
	}
	sort.Strings(names)
	return names
}

// TenantCategory returns the total charged to one tenant in one category.
func (l *Ledger) TenantCategory(tenant string, cat Category) Money {
	t, c := l.tenant(tenant), l.lookup(cat)
	if t == nil || c < 0 {
		return 0
	}
	return t.by[c]
}

// TenantTotal returns the total charged to one tenant across categories.
func (l *Ledger) TenantTotal(tenant string) Money {
	var sum Money
	if t := l.tenant(tenant); t != nil {
		for _, m := range t.by {
			sum += m
		}
	}
	return sum
}

// TenantBreakdown returns a copy of one tenant's per-category charges.
func (l *Ledger) TenantBreakdown(tenant string) map[Category]Money {
	t := l.tenant(tenant)
	if t == nil {
		return map[Category]Money{}
	}
	out := make(map[Category]Money, len(t.by))
	for c, m := range t.by {
		if t.seen[c] {
			out[l.cats[c]] = m
		}
	}
	return out
}

// Reconcile checks the ledger's conservation invariants to the exact
// microcent: tenant charges sum to the category totals per category,
// job charges plus the unattributed remainder sum to the grand total,
// and the category totals sum to the grand total. It returns nil when
// the books balance.
func (l *Ledger) Reconcile() error {
	perCat := make([]Money, len(l.cats))
	for i := range l.tenants {
		for c, m := range l.tenants[i].by {
			perCat[c] += m
		}
	}
	for c, want := range l.byCat {
		if got := perCat[c]; got != want {
			return fmt.Errorf("cost: tenant sum for %s = %d uc, category total = %d uc", l.cats[c], got, want)
		}
	}
	var catSum, jobSum Money
	for _, m := range l.byCat {
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
	cats := make([]string, 0, len(l.cats))
	for c, seen := range l.catSeen {
		if seen {
			cats = append(cats, string(l.cats[c]))
		}
	}
	sort.Strings(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "total %v", l.total)
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%v", c, l.Category(Category(c)))
	}
	return b.String()
}
