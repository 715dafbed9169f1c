module ltqp/bench/ltqpbench

go 1.22

require ltqp v0.0.0

replace ltqp => ../..
