package cdml_test

import (
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestDesignInventoryNamesEveryPackage: DESIGN.md §1, the system inventory,
// names in backticks exactly the directories under internal/ and cmd/ — a
// package cannot be added without its row, or deleted and stay listed.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## 1. System inventory\n")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 1. System inventory\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`((?:internal|cmd)/[a-z0-9-]+)`").FindAllStringSubmatch(section, -1) {
		named[m[1]] = true
	}
	var listed, tree []string
	for dir := range named {
		listed = append(listed, dir)
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				tree = append(tree, root+"/"+e.Name())
			}
		}
	}
	sort.Strings(listed)
	sort.Strings(tree)
	if !reflect.DeepEqual(listed, tree) {
		t.Fatalf("DESIGN.md §1 names\n%q\nthe tree holds\n%q", listed, tree)
	}
}
