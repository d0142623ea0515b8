package pipeline

import (
	"strings"
	"testing"

	"cdml/internal/data"
)

func TestTokenizerBasics(t *testing.T) {
	tok := NewTokenizer("raw", "tokens")
	got := tok.tokenize("HTTP://Login.Example.com/path?id=42")
	want := []string{"http", "login", "example", "com", "path", "id", "42"}
	if len(got) != len(want) {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens = %v, want %v", got, want)
		}
	}
}

func TestTokenizerMinLen(t *testing.T) {
	tok := NewTokenizer("raw", "tokens")
	tok.MinTokenLen = 3
	got := tok.tokenize("a bb ccc dddd")
	if len(got) != 2 || got[0] != "ccc" || got[1] != "dddd" {
		t.Fatalf("tokens = %v", got)
	}
}

func TestTokenizerNGrams(t *testing.T) {
	tok := NewTokenizer("raw", "tokens")
	tok.NGram = 3
	got := tok.tokenize("evil")
	// "evil" + its 3-grams "evi", "vil".
	want := []string{"evil", "evi", "vil"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("tokens = %v, want %v", got, want)
	}
	// Tokens not longer than the n-gram size emit no grams.
	if got := tok.tokenize("abc"); len(got) != 1 {
		t.Fatalf("short token grams: %v", got)
	}
}

func TestTokenizerEmptyAndPunctuation(t *testing.T) {
	tok := NewTokenizer("raw", "tokens")
	if got := tok.tokenize(""); len(got) != 0 {
		t.Fatalf("empty input tokens: %v", got)
	}
	if got := tok.tokenize("...!!!"); len(got) != 0 {
		t.Fatalf("punctuation-only tokens: %v", got)
	}
}

func TestTokenizerTransform(t *testing.T) {
	f := data.NewFrame(2)
	f.SetString("raw", []string{"Hello, World", ""})
	tok := NewTokenizer("raw", "tokens")
	if !tok.Stateless() {
		t.Fatal("tokenizer must be stateless")
	}
	g, err := tok.Transform(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.String("tokens")[0] != "hello world" {
		t.Fatalf("joined tokens = %q", g.String("tokens")[0])
	}
	if g.String("tokens")[1] != "" {
		t.Fatal("empty row should stay empty")
	}
	if f.String("raw")[0] != "Hello, World" {
		t.Fatal("input mutated")
	}
}

func TestTokenizerFeedsHasher(t *testing.T) {
	// Tokenizer → hasher end to end over a raw text column.
	f := data.NewFrame(1)
	f.SetString("url", []string{"http://evil-login.example.ru/steal"})
	f.SetFloat("label", []float64{1})
	p := &Pipeline{
		Components: []Component{
			NewTokenizer("url", "tokens"),
			NewFeatureHasher([]string{"tokens"}, nil, "features", 1<<10),
		},
		FeatureCol: "features",
		LabelCol:   "label",
	}
	out, err := updateTransform(p.Components, f)
	if err != nil {
		t.Fatal(err)
	}
	ins, err := p.Instances(out)
	if err != nil {
		t.Fatal(err)
	}
	if ins[0].X.NNZ() == 0 {
		t.Fatal("hashed URL has no features")
	}
}
