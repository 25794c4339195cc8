// Package main is the program gate's fixture: main is its only root.
package main

import "fmt"

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is reached only through square's conversion to shape in main.
func (s square) area() float64 { return s.side * s.side }

func describe(s shape) string { return fmt.Sprint(s.area()) }

func main() {
	fmt.Println(describe(square{2}))
}

func unreached() {} // want "no program reaches unreached"

// kept is a test oracle, and TestKept is its test.
//
//marketlint:oracle TestKept
func kept() int { return 1 }

// dangling names a test that does not exist.
//
//marketlint:oracle TestMissing
func dangling() int { return 2 } // want "oracle dangling names TestMissing, which is no test"
