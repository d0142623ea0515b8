package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// allowPrefix introduces a suppression comment. The canonical form is
//
//	//lint:allow <name>[,<name>...]: <why>
//
// — a comma-separated analyzer list, a colon, and a mandatory free-form
// justification. The legacy colon-less form (`//lint:allow name why`) still
// suppresses, but CheckAllows reports it so reason-less or unconverted
// suppressions fail the lint gate rather than silently hiding findings.
const allowPrefix = "lint:allow"

// parsedAllow is one decomposed //lint:allow comment.
type parsedAllow struct {
	// names is the comma-separated analyzer list (may be empty on a bare
	// `//lint:allow`).
	names []string
	// reason is the justification after the colon ("" when missing).
	reason string
	// canonical reports whether the comment used the colon form.
	canonical bool
}

// parseAllow decomposes comment text (without the // or /* markers) into its
// analyzer list and reason. ok is false when the text is not an allow
// comment at all.
func parseAllow(text string) (pa parsedAllow, ok bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, allowPrefix) {
		return pa, false
	}
	rest := text[len(allowPrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return pa, false // e.g. "lint:allowfloateq" is not an allow comment
	}
	rest = strings.TrimSpace(rest)
	// The analyzer list runs to the first colon or whitespace, whichever
	// comes first; a colon marks the canonical form and everything after it
	// is the reason.
	end := len(rest)
	for i, r := range rest {
		if r == ':' || r == ' ' || r == '\t' {
			end = i
			break
		}
	}
	namesField := rest[:end]
	tail := strings.TrimLeft(rest[end:], " \t")
	if strings.HasPrefix(tail, ":") {
		pa.canonical = true
		pa.reason = strings.TrimSpace(tail[1:])
	} else {
		pa.reason = strings.TrimSpace(tail)
	}
	for _, n := range strings.Split(namesField, ",") {
		if n != "" {
			pa.names = append(pa.names, n)
		}
	}
	return pa, true
}

// allowsAnalyzer reports whether comment text (without the // or /* markers)
// suppresses the named analyzer.
func allowsAnalyzer(text, name string) bool {
	pa, ok := parseAllow(text)
	if !ok {
		return false
	}
	for _, n := range pa.names {
		if n == name {
			return true
		}
	}
	return false
}

// commentText strips the comment markers off a raw comment.
func commentText(c *ast.Comment) string {
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimPrefix(text, "/*")
	return strings.TrimSuffix(text, "*/")
}

// suppress drops diagnostics covered by a //lint:allow comment for the
// named analyzer. A comment covers its own line (trailing-comment form) and
// the line immediately after it (standalone-comment form).
func suppress(fset *token.FileSet, files []*ast.File, name string, diags []Diagnostic) []Diagnostic {
	if len(diags) == 0 {
		return diags
	}
	// allowed maps filename -> set of suppressed lines.
	allowed := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !allowsAnalyzer(commentText(c), name) {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := allowed[pos.Filename]
				if lines == nil {
					lines = make(map[int]bool)
					allowed[pos.Filename] = lines
				}
				end := fset.Position(c.End())
				lines[pos.Line] = true
				lines[end.Line+1] = true
			}
		}
	}
	if len(allowed) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if allowed[pos.Filename][pos.Line] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// CheckAllows audits every //lint:allow comment of the files: a suppression
// must name at least one analyzer and carry a colon-separated justification
// (`//lint:allow <name>: <why>`). It returns one diagnostic per malformed
// comment. cdml-lint runs it over every package, so a reason-less
// suppression is itself a lint failure — an unexplained exception to an
// invariant is a bug report waiting to happen.
func CheckAllows(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var diags []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pa, ok := parseAllow(commentText(c))
				if !ok {
					continue
				}
				switch {
				case len(pa.names) == 0:
					diags = append(diags, Diagnostic{Pos: c.Pos(),
						Message: "bare //lint:allow suppresses nothing; use //lint:allow <analyzer>: <why>"})
				case !pa.canonical || pa.reason == "":
					diags = append(diags, Diagnostic{Pos: c.Pos(),
						Message: "suppression without a reason; use //lint:allow " +
							strings.Join(pa.names, ",") + ": <why>"})
				}
			}
		}
	}
	return diags
}
