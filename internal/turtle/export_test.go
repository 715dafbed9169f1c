package turtle

// AgreeWithReference lets the package's external tests (which may import the
// dataset generators that themselves import this package) compare the parser
// with the reference in reference_test.go.
var AgreeWithReference = agreeWithReference
