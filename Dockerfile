# Deployable image for the private-retrieval serving front-end.
#
# The package is pure standard library at runtime, so the image is just a
# slim Python plus the source tree.  Mount saved index directories under
# /indexes and name them as tenants:
#
#   docker build -t pr-serve .
#   docker run -p 8080:8080 -v /var/indexes:/indexes:ro pr-serve \
#       --tenant corpus=/indexes/corpus
#
# The entrypoint drains gracefully on SIGTERM (docker stop): in-flight
# batches finish, new requests are refused, the worker pool shuts down.
#
# This image holds neither cffi nor a C compiler, so the service in it
# accumulates on the python loop: the start-up log says so and /metrics
# reads kernel.backend "python" (docs/operations.md, "Crypto kernel
# backend").  The compiled kernel needs both at run time -- it builds on the
# first start, about 3.5 s, into $REPRO_KERNEL_CACHE.  Untested lines (no
# image was built with them) that would add it, after FROM:
#
#   RUN apt-get update && apt-get install -y --no-install-recommends gcc libc6-dev \
#       && rm -rf /var/lib/apt/lists/* && pip install --no-cache-dir "cffi>=1.15"

FROM python:3.11-slim

WORKDIR /app
COPY src/ src/
COPY scripts/serve.py scripts/serve.py

ENV PYTHONPATH=/app/src \
    PYTHONUNBUFFERED=1

EXPOSE 8080

# python (not a shell) as PID 1 so SIGTERM reaches the drain handler.
ENTRYPOINT ["python", "scripts/serve.py", "--host", "0.0.0.0", "--port", "8080"]
CMD ["--help"]
