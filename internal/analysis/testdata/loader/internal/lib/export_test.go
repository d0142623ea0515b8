package lib

// Secret opens secret to the external tests.
var Secret = secret
