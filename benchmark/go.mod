module cdml/benchmark

go 1.24

require cdml v0.0.0

replace cdml => ../
