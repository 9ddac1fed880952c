//go:build !race

package sigvm_test

const raceEnabled = false
