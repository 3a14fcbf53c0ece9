"""Kink-kink dynamics in the (1+1)d phi^6 nonlinear wave equation."""
