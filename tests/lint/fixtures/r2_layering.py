"""Fixture: R2 layering violations (deep import + private attribute)."""

from repro.flash.page import PhysicalPage


def poke(page: PhysicalPage) -> None:
    page._disturb_worst = 0
