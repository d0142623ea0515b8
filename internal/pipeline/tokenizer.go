package pipeline

import (
	"strings"

	"cdml/internal/data"
)

// Tokenizer normalizes a raw text column into a whitespace-separated token
// column the feature hasher can consume: lower-casing, splitting on
// non-alphanumeric runs, and optionally appending character n-grams (a
// standard trick for URL-like strings, where substrings such as ".ru" or
// "login" carry signal). It is stateless.
type Tokenizer struct {
	// Col is the raw text column; Out receives the token string.
	Col, Out string
	// NGram, when ≥ 2, additionally emits character n-grams of that size
	// per token.
	NGram int
	// MinTokenLen drops tokens shorter than this (default 1 keeps all).
	MinTokenLen int
}

// NewTokenizer returns a tokenizer without n-grams.
func NewTokenizer(col, out string) *Tokenizer {
	return &Tokenizer{Col: col, Out: out, MinTokenLen: 1}
}

// Name implements Component.
func (t *Tokenizer) Name() string { return "tokenizer" }

// Stateless implements Component.
func (t *Tokenizer) Stateless() bool { return true }

// Update implements Component (no statistics).
func (t *Tokenizer) Update(f *data.Frame) error { return nil }

// Snapshot implements Component: stateless, shares itself.
func (t *Tokenizer) Snapshot() Component { return t }

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= '0' && c <= '9'
}

// tokenize converts one raw string into the token list.
func (t *Tokenizer) tokenize(s string) []string {
	s = strings.ToLower(s)
	minLen := t.MinTokenLen
	if minLen < 1 {
		minLen = 1
	}
	var toks []string
	start := -1
	emit := func(end int) {
		if start < 0 {
			return
		}
		tok := s[start:end]
		start = -1
		if len(tok) < minLen {
			return
		}
		toks = append(toks, tok)
		if t.NGram >= 2 && len(tok) > t.NGram {
			for i := 0; i+t.NGram <= len(tok); i++ {
				toks = append(toks, tok[i:i+t.NGram])
			}
		}
	}
	for i := 0; i < len(s); i++ {
		if isAlnum(s[i]) {
			if start < 0 {
				start = i
			}
		} else {
			emit(i)
		}
	}
	emit(len(s))
	return toks
}

// Transform implements Component.
func (t *Tokenizer) Transform(f *data.Frame) (*data.Frame, error) {
	src := f.String(t.Col)
	out := make([]string, len(src))
	for i, s := range src {
		out[i] = strings.Join(t.tokenize(s), " ")
	}
	return f.ShallowCopy().SetString(t.Out, out), nil
}
