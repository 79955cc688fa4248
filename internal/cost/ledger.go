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

// Categories lists every category in canonical order. A Ledger books
// these five and no other.
var Categories = [...]Category{CatCPU, CatTransfer, CatPlacement, CatSpeculative, CatFault}

// Index returns the category's position in Categories, or -1 for any
// other category.
func (c Category) Index() int { return slices.Index(Categories[:], c) }

// UnattributedTenant is the reserved tenant name that absorbs charges
// carrying no owner: background replication, plan-driven block moves,
// and jobs submitted without a user. The underscore keeps it out of the
// namespace real tenants use.
const UnattributedTenant = "_system"

// Ledger accumulates dollar charges by category, by job, and by
// tenant×category. Every line is a slot in a dense slice: Resolve maps a
// job name and a tenant to a Ref once, and ChargeRef books by it without
// hashing a name. Categories are closed: each of the five has its slot at
// its Index, and booking any other panics. A Ledger is not safe for
// concurrent use; each simulation owns one.
type Ledger struct {
	byCat   [len(Categories)]Money
	catSeen [len(Categories)]bool // charged at least once, zero included

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
	by   [len(Categories)]Money
	seen [len(Categories)]bool
}

// Ref names one (job, tenant) pair of a Ledger: the job's line, or -1
// for the empty job key, and the tenant's line.
type Ref struct {
	job, tenant int32
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{jobIdx: make(map[string]int32), tenantIdx: make(map[string]int32)}
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
		l.tenants = append(l.tenants, tenantLine{name: tenant})
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
// and tenant. A zero amount still marks each as charged. A negative
// amount or a category outside Categories panics: either is a bug in the
// caller, and booking it would skew every total.
func (l *Ledger) ChargeRef(cat Category, r Ref, amount Money) {
	c := cat.Index()
	if c < 0 {
		panic(fmt.Sprintf("cost: charge %v to unknown category %q", amount, cat))
	}
	if amount < 0 {
		job := ""
		for name, i := range l.jobIdx {
			if i == r.job {
				job = name
			}
		}
		panic(fmt.Sprintf("cost: negative charge %v for %s/%s", amount, cat, job))
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

// tenant returns a tenant's line, or nil.
func (l *Ledger) tenant(name string) *tenantLine {
	if i, ok := l.tenantIdx[name]; ok {
		return &l.tenants[i]
	}
	return nil
}

// Total returns the grand total.
func (l *Ledger) Total() Money { return l.total }

// Category returns the total for one category, 0 for one outside
// Categories.
func (l *Ledger) Category(cat Category) Money {
	if c := cat.Index(); c >= 0 {
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
		if slices.Contains(l.tenants[i].seen[:], true) {
			names = append(names, l.tenants[i].name)
		}
	}
	sort.Strings(names)
	return names
}

// TenantCategory returns the total charged to one tenant in one category,
// 0 for a category outside Categories.
func (l *Ledger) TenantCategory(tenant string, cat Category) Money {
	t, c := l.tenant(tenant), cat.Index()
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
			out[Categories[c]] = m
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
	var perCat [len(Categories)]Money
	for i := range l.tenants {
		for c, m := range l.tenants[i].by {
			perCat[c] += m
		}
	}
	for c, want := range l.byCat {
		if got := perCat[c]; got != want {
			return fmt.Errorf("cost: tenant sum for %s = %d uc, category total = %d uc", Categories[c], got, want)
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
	var cats []Category
	for c, seen := range l.catSeen {
		if seen {
			cats = append(cats, Categories[c])
		}
	}
	slices.Sort(cats)
	var b strings.Builder
	fmt.Fprintf(&b, "total %v", l.total)
	for _, c := range cats {
		fmt.Fprintf(&b, " %s=%v", c, l.Category(c))
	}
	return b.String()
}
