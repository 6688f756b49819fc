module lbsq/bench

go 1.22

require lbsq v0.0.0

replace lbsq => ../
