package lips

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// docFiles are the documents whose references must resolve against the
// tree. CHANGES.md and ROADMAP.md are history and plans, so they may name
// what no longer exists; bench/README.md and bench/'s Go comments belong
// to the benchmark, which keeps its own.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// docTree is what a reference may resolve to: the repository's paths, its
// Go declarations and tests, DESIGN.md's sections and bench/'s metric names.
type docTree struct {
	paths    map[string]bool            // every file and directory, slash-separated
	pkgs     map[string]map[string]bool // package name → its top-level names
	types    map[string]*docType        // "pkg.Type" → the type's members
	typeKeys map[string][]string        // "Type" → every "pkg.Type" of that name
	members  map[string]bool            // every field and method name
	idents   map[string]bool            // every identifier, locals included
	tests    map[string]bool            // every Test, Benchmark, Fuzz and Example function
	metrics  map[string]bool            // layer.name metrics bench/*.go writes
	sections map[int]bool               // DESIGN.md's "## N." headings
	imported map[string]bool            // the names of imported packages outside the module
	comments []docComment               // Go comment groups outside bench/
}

type docType struct {
	members map[string]bool
	embeds  []string // "pkg.Type" of each embedded field
}

type docComment struct {
	file string
	line int
	text string
}

func (tr *docTree) typ(key string) *docType {
	t := tr.types[key]
	if t == nil {
		t = &docType{members: map[string]bool{}}
		tr.types[key] = t
		name := key[strings.IndexByte(key, '.')+1:]
		tr.typeKeys[name] = append(tr.typeKeys[name], key)
	}
	return t
}

// hasMember reports whether the type key, or a type it embeds, declares
// the field or method name.
func (tr *docTree) hasMember(key, name string, depth int) bool {
	t := tr.types[key]
	if t == nil || depth > 4 {
		return false
	}
	if t.members[name] {
		return true
	}
	for _, e := range t.embeds {
		if tr.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

// hasMethod reports whether a type of package pkg has a method name, so
// that sim.StepUntil names the method of sim.Sim.
func (tr *docTree) hasMethod(pkg, name string) bool {
	for key, t := range tr.types {
		if strings.HasPrefix(key, pkg+".") && t.members[name] {
			return true
		}
	}
	return false
}

// typeName returns the name of a receiver or embedded type expression, with
// its package qualifier if it has one.
func typeName(e ast.Expr) (pkg, name string) {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name, x.Sel.Name
		}
	case *ast.Ident:
		return "", x.Name
	}
	return "", ""
}

var metricLit = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z0-9_]+$`)

func loadDocTree(t *testing.T) *docTree {
	tr := &docTree{
		paths: map[string]bool{}, pkgs: map[string]map[string]bool{},
		types: map[string]*docType{}, typeKeys: map[string][]string{},
		members: map[string]bool{}, idents: map[string]bool{}, tests: map[string]bool{},
		metrics: map[string]bool{}, sections: map[int]bool{}, imported: map[string]bool{},
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		path = filepath.ToSlash(path)
		tr.paths[path] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(path, "testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		tr.addFile(fset, path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`(?m)^## (\d+)\. `).FindAllStringSubmatch(string(design), -1) {
		n, _ := strconv.Atoi(m[1])
		tr.sections[n] = true
	}
	return tr
}

func (tr *docTree) addFile(fset *token.FileSet, path string, f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	if tr.pkgs[pkg] == nil {
		tr.pkgs[pkg] = map[string]bool{}
	}
	top := tr.pkgs[pkg]
	inBench := strings.HasPrefix(path, "bench/")
	for _, im := range f.Imports {
		if p, _ := strconv.Unquote(im.Path.Value); !strings.HasPrefix(p, "lips/") {
			tr.imported[p[strings.LastIndexByte(p, '/')+1:]] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			tr.idents[x.Name] = true
		case *ast.BasicLit:
			if s, err := strconv.Unquote(x.Value); err == nil && x.Kind == token.STRING &&
				inBench && !strings.Contains(strings.TrimPrefix(path, "bench/"), "/") && metricLit.MatchString(s) {
				tr.metrics[s] = true
			}
		}
		return true
	})
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv == nil {
				top[name] = true
				for _, p := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
					if strings.HasPrefix(name, p) {
						tr.tests[name] = true
					}
				}
				continue
			}
			_, recv := typeName(d.Recv.List[0].Type)
			tr.typ(pkg + "." + recv).members[name] = true
			tr.members[name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						top[n.Name] = true
					}
				case *ast.TypeSpec:
					top[s.Name.Name] = true
					tr.addType(pkg, s)
				}
			}
		}
	}
	if inBench || path == "docs_test.go" {
		return
	}
	for _, g := range f.Comments {
		var text []string
		for _, c := range g.List {
			text = append(text, c.Text)
		}
		tr.comments = append(tr.comments, docComment{path, fset.Position(g.Pos()).Line, strings.Join(text, "\n")})
	}
}

func (tr *docTree) addType(pkg string, s *ast.TypeSpec) {
	t := tr.typ(pkg + "." + s.Name.Name)
	var fields *ast.FieldList
	switch x := s.Type.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			t.members[n.Name] = true
			tr.members[n.Name] = true
		}
		if len(f.Names) == 0 {
			q, name := typeName(f.Type)
			if q == "" {
				q = pkg
			}
			t.members[name] = true
			tr.members[name] = true
			t.embeds = append(t.embeds, q+"."+name)
		}
	}
}

var (
	lineCite    = regexp.MustCompile(`[\w.\-/]+\.go:\d+`)
	designCite  = regexp.MustCompile(`\bDESIGN(\.md)?\b`)
	sectionCite = regexp.MustCompile(`^\.md[\s/]+§(\d+)`)
	bareSection = regexp.MustCompile(`§(\d+)`)
	testWord    = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_]\w*\*?`)
	rootedPath  = regexp.MustCompile(`(?:^|[\s(\x60'"])(?:\./)?((?:internal|cmd|bench|examples|scripts|testdata|docs)/[\w.\-/]*)`)
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	dottedRef   = regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\)|\[.*\])?$`)
	plainIdent  = regexp.MustCompile(`^[A-Za-z_]\w*$`)
	spanPath    = regexp.MustCompile(`^(?:\./)?[\w.\-]+(?:/[\w.\-]+)*/?$`)
	qualified   = regexp.MustCompile(`\b([a-z]\w*)\.([A-Z]\w*)(?:\.(\w+))?`)
	fileExts    = map[string]bool{"go": true, "md": true, "golden": true, "json": true, "gz": true,
		"sh": true, "yml": true, "txt": true, "allow": true, "jsonl": true, "mod": true}
)

// lineOf turns a byte offset of text into a line number, first line first.
func lineOf(text string, first, off int) int { return first + strings.Count(text[:off], "\n") }

// checkText resolves every reference in text, a document or a comment whose
// first line is first, and reports each that does not resolve.
func (tr *docTree) checkText(file string, first int, text string, isDoc bool, report func(line int, msg string)) {
	for _, m := range lineCite.FindAllStringIndex(text, -1) {
		report(lineOf(text, first, m[0]), fmt.Sprintf("%q cites a line; cite the symbol", text[m[0]:m[1]]))
	}
	self := file == "DESIGN.md"
	for _, m := range designCite.FindAllStringIndex(text, -1) {
		if self {
			break
		}
		s := sectionCite.FindStringSubmatch(text[m[0]+len("DESIGN"):])
		if s == nil {
			report(lineOf(text, first, m[0]), "a DESIGN cite is written DESIGN.md §N")
			continue
		}
		if n, _ := strconv.Atoi(s[1]); !tr.sections[n] {
			report(lineOf(text, first, m[0]), fmt.Sprintf("DESIGN.md has no section %d", n))
		}
	}
	for _, m := range bareSection.FindAllStringSubmatchIndex(text, -1) {
		n, _ := strconv.Atoi(text[m[2]:m[3]])
		cited := strings.HasSuffix(strings.TrimRight(text[:m[0]], " \n\t/"), "DESIGN.md")
		switch {
		case self && !tr.sections[n]:
			report(lineOf(text, first, m[0]), fmt.Sprintf("no section %d", n))
		case !self && !cited:
			report(lineOf(text, first, m[0]), fmt.Sprintf("§%d: a DESIGN cite is written DESIGN.md §N", n))
		}
	}
	tr.checkWords(first, text, report)
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		if msg := tr.checkSpan(span); msg != "" {
			report(lineOf(text, first, m[2]), fmt.Sprintf("`%s`: %s", span, msg))
		}
	}
	if isDoc {
		return
	}
	for _, m := range qualified.FindAllStringSubmatchIndex(text, -1) {
		pkg := text[m[2]:m[3]]
		if tr.pkgs[pkg] == nil || pkg == "main" || m[0] > 0 && strings.ContainsAny(text[m[0]-1:m[0]], "./`") {
			continue
		}
		ref := text[m[0]:m[1]]
		if m[6] < 0 {
			ref = text[m[0]:m[5]]
		}
		if msg := tr.checkRef(strings.Split(ref, ".")); msg != "" {
			report(lineOf(text, first, m[0]), fmt.Sprintf("%s: %s", ref, msg))
		}
	}
}

// checkWords resolves the test names and rooted repository paths of text,
// wherever they stand: in prose, in a code span or in a code block.
func (tr *docTree) checkWords(first int, text string, report func(line int, msg string)) {
	for _, m := range testWord.FindAllStringIndex(text, -1) {
		if w := text[m[0]:m[1]]; !tr.isTest(w) {
			report(lineOf(text, first, m[0]), fmt.Sprintf("no test %s", w))
		}
	}
	for _, m := range rootedPath.FindAllStringSubmatchIndex(text, -1) {
		if p := text[m[2]:m[3]]; !tr.isPath(p) {
			report(lineOf(text, first, m[2]), fmt.Sprintf("no path %s", p))
		}
	}
}

func (tr *docTree) isTest(w string) bool {
	if p, ok := strings.CutSuffix(w, "*"); ok {
		for name := range tr.tests {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	return tr.tests[w]
}

// isPath reports whether p names a file or directory of the tree: exactly,
// as the tail of a longer path, or as a file's name without its extensions.
func (tr *docTree) isPath(p string) bool {
	p = strings.TrimRight(strings.TrimPrefix(p, "./"), "./")
	if p == "" || tr.paths[p] {
		return true
	}
	tail := "/" + p
	if strings.HasPrefix(p, "_") || strings.HasPrefix(p, ".") {
		tail = p // a file-name suffix such as _test.go
	}
	for q := range tr.paths {
		if strings.HasSuffix(q, tail) || strings.HasPrefix(q, p+".") || strings.Contains(q, "/"+p+".") {
			return true
		}
	}
	// A package path, then one of its names: internal/obs.Progress.
	if i := strings.LastIndexByte(p, '.'); i > 0 && strings.Contains(p[:i], "/") && tr.isPath(p[:i]) {
		return tr.pkgs[p[strings.LastIndexByte(p[:i], '/')+1:i]][p[i+1:]]
	}
	return false
}

// checkSpan resolves one code span. A span is a Go reference when it is a
// dotted selector (pkg.Name, Type.Member, pkg.Type.Member, var.Member,
// optionally called or indexed) or one mixed-case identifier; a path when
// it has a slash or a file extension; a metric when bench/ writes it. Any
// other span (a command, a flag, a formula, a JSON key) is prose.
func (tr *docTree) checkSpan(span string) string {
	if tr.metrics[span] || strings.ContainsAny(span, "*|") || strings.HasPrefix(span, "-") || strings.HasPrefix(span, "/") {
		return ""
	}
	if rootedPath.MatchString(" " + span) {
		return "" // checkText resolves rooted paths wherever they stand
	}
	ext := ""
	if i := strings.LastIndexByte(span, '.'); i >= 0 {
		ext = span[i+1:]
	}
	if spanPath.MatchString(span) && (strings.Contains(span, "/") && tr.pathLike(span) || fileExts[ext]) {
		if !tr.isPath(span) {
			return "no such path"
		}
		return ""
	}
	if m := dottedRef.FindStringSubmatch(span); m != nil {
		return tr.checkRef(strings.Split(m[1], "."))
	}
	if plainIdent.MatchString(span) && strings.ToLower(span) != span && strings.ToUpper(span) != span &&
		!tr.idents[span] && !testWord.MatchString(span) {
		return "no such identifier"
	}
	return ""
}

// pathLike reports whether a slashed span starts at a directory of the tree,
// so that rowOf/slotOf reads as two names and lp/testdata as a path.
func (tr *docTree) pathLike(span string) bool {
	head := strings.SplitN(strings.TrimPrefix(span, "./"), "/", 2)[0]
	if tr.paths[head] {
		return true
	}
	for q := range tr.paths {
		if strings.HasSuffix(q, "/"+head) {
			return true
		}
	}
	return false
}

// checkRef resolves a dotted Go reference split at its dots.
func (tr *docTree) checkRef(segs []string) string {
	head, rest := segs[0], segs[1:]
	if top := tr.pkgs[head]; top != nil && head != "main" {
		if !top[rest[0]] && !tr.hasMethod(head, rest[0]) {
			return fmt.Sprintf("package %s declares no %s", head, rest[0])
		}
		if len(rest) > 1 && tr.types[head+"."+rest[0]] != nil && !tr.hasMember(head+"."+rest[0], rest[1], 0) {
			return fmt.Sprintf("%s.%s has no member %s", head, rest[0], rest[1])
		}
		return ""
	}
	if keys := tr.typeKeys[head]; len(keys) > 0 {
		for _, k := range keys {
			if tr.hasMember(k, rest[0], 0) {
				return ""
			}
		}
		return fmt.Sprintf("no type %s has a member %s", head, rest[0])
	}
	if head[:1] == strings.ToUpper(head[:1]) {
		return fmt.Sprintf("no type %s", head)
	}
	if tr.imported[head] {
		return ""
	}
	for _, s := range rest {
		if !tr.members[s] {
			return fmt.Sprintf("no type has a member %s", s)
		}
	}
	return ""
}

// markdownText splits a document into its prose and its fenced code blocks,
// each with the other's lines blank so line numbers hold. Code blocks hold
// commands and output, so only their test names and paths are checked.
func markdownText(doc string) (prose, code string) {
	var p, c strings.Builder
	fenced := false
	for _, l := range strings.SplitAfter(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			p.WriteString("\n")
			c.WriteString("\n")
			continue
		}
		if fenced {
			p.WriteString("\n")
			c.WriteString(l)
		} else {
			p.WriteString(l)
			c.WriteString("\n")
		}
	}
	return p.String(), c.String()
}

// TestDocsResolve holds README.md, DESIGN.md, EXPERIMENTS.md, the verify
// notes and every Go comment outside bench/ to the tree: each backticked
// Go reference, repository path, test name and DESIGN.md §N cite must
// resolve, and no reference may cite a file's line number.
func TestDocsResolve(t *testing.T) {
	tr := loadDocTree(t)
	var bad []string
	for _, file := range docFiles {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		report := func(line int, msg string) { bad = append(bad, fmt.Sprintf("%s:%d: %s", file, line, msg)) }
		prose, code := markdownText(string(b))
		tr.checkText(file, 1, prose, true, report)
		tr.checkWords(1, code, report)
	}
	for _, c := range tr.comments {
		tr.checkText(c.file, c.line, c.text, false, func(line int, msg string) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", c.file, line, msg))
		})
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}
