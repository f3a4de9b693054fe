"""A run's artifact files, written all or nothing.

labcli hands every command's files to write_artifacts at once. It lives
apart from labcli because the package may be compiled from source on
every start (with PYTHONDONTWRITEBYTECODE set, as in perfbench's
set-up): a larger labcli.py kept one more 256 KB block of the
allocator's memory after the compile, 0.2-0.3 MB more peak resident
memory for every command.
"""

import contextlib
import os
import shutil

from .errors import ConfigError


def write_artifacts(out_dir: str, artifacts: dict) -> None:
    """Write the whole artifact set or none of it.

    Each file is first written under a temporary name in ``out_dir``.
    Once every write has succeeded, each file already in place gets a
    second hard link under a backup name (a copy where the file system
    has no hard links), and its new version is renamed over it, so the
    target never goes missing. If a backup or a rename fails (a
    directory in the way can be neither linked nor copied), every file
    already replaced is put back. On an OSError the directory is left as
    it was, apart from ``out_dir`` itself being created, and ConfigError
    is raised.
    """
    names = sorted(artifacts)
    targets = [os.path.join(out_dir, name) for name in names]
    temps, backups = ([os.path.join(out_dir, f".{name}.{os.getpid()}.{end}") for name in names]
                      for end in ("tmp", "old"))
    done = []       # (target, its backup or None), in the order replaced
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, tmp in zip(names, temps):
            with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(artifacts[name])
        for target, tmp, backup in zip(targets, temps, backups):
            try:
                os.link(target, backup, follow_symlinks=False)
            except FileNotFoundError:
                backup = None
            except OSError:     # no hard links here, or a directory
                shutil.copy2(target, backup, follow_symlinks=False)
            done.append((target, backup))
            os.replace(tmp, target)
    except OSError as exc:
        for target, backup in reversed(done):
            with contextlib.suppress(OSError):
                os.replace(backup, target) if backup else os.remove(target)
        raise ConfigError(f"cannot write {out_dir!r}: {exc}") from exc
    finally:
        for leftover in temps + backups:
            with contextlib.suppress(OSError):
                os.remove(leftover)
    for target in targets:
        print(target)
